package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"specinterference/internal/core"
	"specinterference/internal/experiment"
	"specinterference/internal/results"
	kernels "specinterference/internal/workload"
)

// replay is what a serial run of a spec reports besides its record.
type replay struct {
	planS, prepareS, aggregateS float64
	shardMS                     []float64
	victimBuilds, victimHits    uint64
	simCycles                   int64
}

// serialRun regenerates a record through experiment.Run on one
// in-process worker, with the spec's functions timed as in a traced
// regeneration. It is both the reference run behind a non-default seed's
// expected hash and the traced run's per-shard replay.
func serialRun(spec *experiment.Spec, p results.Params) (*results.Record, replay, error) {
	var rp replay
	tr := newTracer()
	rt := &regenTrace{tr: tr, root: tr.begin(0, -1, "replay", layerBench)}
	rt.backend = rt.root
	ts := tracedSpec(spec, rt, layerCore)
	run := ts.Run
	ts.Run = func(ctx context.Context, state any, p results.Params, i int) (any, error) {
		v, err := run(ctx, state, p, i)
		switch v := v.(type) {
		case core.BitOutcome:
			rp.simCycles += v.Cycles
		case kernels.Cell:
			rp.simCycles += v.Cycles
		}
		return v, err
	}
	hits0, builds0 := core.VictimCacheStats()
	rec, err := experiment.Run(context.Background(), ts, p, tracingBackend{experiment.InProcess{Workers: 1}, rt}, nil)
	hits1, builds1 := core.VictimCacheStats()
	rp.victimBuilds, rp.victimHits = builds1-builds0, hits1-hits0
	tr.finish(rt.root)
	for _, s := range tr.regenSpans(0) {
		d := float64(s.end - s.start)
		switch s.name {
		case "spec.plan":
			rp.planS = d / 1e9
		case "experiment.prepare":
			rp.prepareS = d / 1e9
		case "spec.run":
			rp.shardMS = append(rp.shardMS, d/1e6)
		case "spec.aggregate":
			rp.aggregateS = d / 1e9
		}
	}
	return rec, rp, err
}

// regenTrace is the span context of one traced regeneration: the traced
// spec's functions and the backend wrapper open their spans under it.
type regenTrace struct {
	tr          *tracer
	regen, root int
	// backend is the id of the open backend.run span. Prepare and Spec.Run
	// are called from inside Backend.Run, so their spans hang under it.
	backend int
}

// span opens a span under parent and returns the function that ends it.
func (rt *regenTrace) span(parent int, name, layer string) func() {
	id := rt.tr.begin(rt.regen, parent, name, layer)
	return func() { rt.tr.finish(id) }
}

// tracedSpec returns a copy of spec whose Plan, Prepare, Run and Aggregate
// each record a span around a call to the original.
func tracedSpec(spec *experiment.Spec, rt *regenTrace, shardLayer string) *experiment.Spec {
	ts := *spec
	ts.Plan = func(p results.Params) (int, error) {
		defer rt.span(rt.root, "spec.plan", layerExperiment)()
		return spec.Plan(p)
	}
	if spec.Prepare != nil {
		ts.Prepare = func(p results.Params) (any, error) {
			defer rt.span(rt.backend, "experiment.prepare", layerExperiment)()
			return spec.Prepare(p)
		}
	}
	ts.Run = func(ctx context.Context, state any, p results.Params, i int) (any, error) {
		defer rt.span(rt.backend, "spec.run", shardLayer)()
		return spec.Run(ctx, state, p, i)
	}
	ts.Aggregate = func(p results.Params, shards []any) (*results.Record, error) {
		defer rt.span(rt.root, "spec.aggregate", layerExperiment)()
		return spec.Aggregate(p, shards)
	}
	return &ts
}

// tracingBackend records the backend.run span around the wrapped
// backend's Run.
type tracingBackend struct {
	experiment.Backend
	rt *regenTrace
}

func (b tracingBackend) Run(ctx context.Context, spec *experiment.Spec, p results.Params, n int, done func()) ([]any, error) {
	b.rt.backend = b.rt.tr.begin(b.rt.regen, b.rt.root, "backend.run", layerExperiment)
	defer b.rt.tr.finish(b.rt.backend)
	return b.Backend.Run(ctx, spec, p, n, done)
}

// tracedSample is one traced regeneration.
type tracedSample struct {
	sample
	// tail is the time from the 90th-percentile shard completion to the
	// last one.
	tail float64
}

// tracedRegen makes one regeneration through experiment.Run, with the
// spec's functions and the backend made by newBackend wrapped in spans,
// and a span around the output check, all under one root span.
func tracedRegen(tr *tracer, regen int, spec *experiment.Spec, p results.Params, newBackend func(*regenTrace) experiment.Backend, shardLayer, wantHash string, check func(*results.Record) error) tracedSample {
	var (
		mu    sync.Mutex
		dones []int64
	)
	done := func() {
		t := tr.now()
		mu.Lock()
		dones = append(dones, t)
		mu.Unlock()
	}
	cpu0 := cpuSeconds()
	root := tr.begin(regen, -1, "regenerate", layerBench)
	rt := &regenTrace{tr: tr, regen: regen, root: root, backend: root}
	start := tr.now()
	rec, err := experiment.Run(context.Background(), tracedSpec(spec, rt, shardLayer), p, tracingBackend{newBackend(rt), rt}, done)
	if err == nil {
		s := tr.begin(regen, root, "results.verify", layerResults)
		err = verify(rec, wantHash, check)
		tr.finish(s)
	}
	tr.finish(root)
	out := tracedSample{sample: sample{
		wall: float64(tr.now()-start) / 1e9, cpu: cpuSeconds() - cpu0, err: err,
	}}
	sort.Slice(dones, func(i, j int) bool { return dones[i] < dones[j] })
	if len(dones) > 0 {
		out.setup = float64(dones[0]-start) / 1e9
		q90 := dones[int(0.9*float64(len(dones)-1))]
		out.tail = float64(dones[len(dones)-1]-q90) / 1e9
	}
	return out
}

// traced is the traced run. In a fresh process it makes, in order: a
// serial replay of every shard; the layer micro-measurements; untraced
// regenerations on the workload's backend; traced regenerations whose
// spans split the wall time by layer; for an in-process workload, traced
// regenerations of the same parameters on the remote backend, which is
// where the wire counters come from; and regenerations on the subprocess
// backend. Every regeneration is verified and counted.
func traced(o options) (result, error) {
	w := o.workload
	spec, err := experiment.Lookup(w.experiment)
	if err != nil {
		return result{}, err
	}
	p := w.params(o.seed)
	m := metrics{}
	attempted, failed := 0, 0
	count := func(what string, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(o.log, "perfbench: %s: %s failed: %v\n", w.name, what, err)
		}
	}

	// Serial replay: per-shard cost, victim cache and simulated cycles.
	rec, rp, err := serialRun(spec, p)
	if err != nil {
		return result{}, fmt.Errorf("serial replay: %w", err)
	}
	want := w.expectedHash
	if !w.usesStoredHash(o.seed) {
		want = rec.Hash
	}
	count("serial replay", verify(rec, want, w.check))
	m.set("experiment.plan_s", rp.planS)
	m.set("experiment.prepare_s", rp.prepareS)
	m.set("experiment.aggregate_s", rp.aggregateS)
	m.set("core.shard_ms.p50", quantile(rp.shardMS, 0.5))
	m.set("core.shard_ms.p99", quantile(rp.shardMS, 0.99))
	m.set("core.shard_ms.max", maxOf(rp.shardMS))
	m.set("core.victim_builds", float64(rp.victimBuilds))
	m.set("core.victim_hits", float64(rp.victimHits))
	m.set("uarch.sim_cycles", float64(rp.simCycles))
	sealMS, recordKB, err := sealCost(rec)
	if err != nil {
		return result{}, err
	}
	m.set("results.seal_ms", sealMS)
	m.set("results.record_kb", recordKB)
	if err := microMetrics(m); err != nil {
		return result{}, err
	}

	// Untraced regenerations on the workload's own backend: the baseline
	// for the tracing overhead, and the Go runtime's allocation per run.
	phase := o.duration * 2 / 5
	b := w.backend()
	var plain []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for end := time.Now().Add(phase); len(plain) < 2 || time.Now().Before(end); {
		s := regenerate(spec, p, b, want, w.check)
		count("untraced regeneration", s.err)
		plain = append(plain, s.wall)
	}
	runtime.ReadMemStats(&ms1)
	m.set("go.alloc_mb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(len(plain)))
	m.set("go.gc_cycles_per_run", float64(ms1.NumGC-ms0.NumGC)/float64(len(plain)))

	// Traced regenerations on the workload's backend.
	tr := newTracer()
	wire := &wireStats{}
	remoteBackend := func(rt *regenTrace) experiment.Backend {
		return &tracedRemote{rt: rt, shardLayer: w.shardLayer, wire: wire}
	}
	tb := func(*regenTrace) experiment.Backend { return w.backend() }
	if w.remote {
		tb = remoteBackend
	}
	var traces []tracedSample
	for end := time.Now().Add(phase); len(traces) < 2 || time.Now().Before(end); {
		s := tracedRegen(tr, len(traces), spec, p, tb, w.shardLayer, want, w.check)
		count("traced regeneration", s.err)
		traces = append(traces, s)
	}
	breakdown(m, tr, traces, plain, sum(rp.shardMS)/1e3, w.concurrency())

	// The wire counters for an in-process workload come from the same
	// parameters regenerated on the remote backend.
	if !w.remote {
		for i := 0; i < 2; i++ {
			count("remote regeneration", tracedRegen(tr, len(traces)+i, spec, p, remoteBackend, w.shardLayer, want, w.check).err)
		}
	}
	wire.metrics(m)

	// The same parameters on the subprocess backend.
	sb := experiment.Subprocess{Procs: procs}
	var sub []float64
	for i := 0; i < 2; i++ {
		s := regenerate(spec, p, sb, want, w.check)
		count("subprocess regeneration", s.err)
		sub = append(sub, s.wall)
	}
	m.set("experiment.subprocess_wall_s", median(sub))

	if err := tr.writeSpans(w.name); err != nil {
		fmt.Fprintf(o.log, "perfbench: %s: spans not written: %v\n", w.name, err)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// breakdown reports the traced regenerations' wall time, the mean self
// time of each layer and what no layer call covers, and the tracing
// overhead against the untraced regenerations.
func breakdown(m metrics, tr *tracer, traces []tracedSample, plain []float64, serialShardS float64, workers int) {
	layers := map[string]float64{}
	var walls, tails []float64
	wallSum := 0.0
	for i, s := range traces {
		byLayer, wall := layerSelf(tr.regenSpans(i))
		for l, v := range byLayer {
			layers[l] += v / float64(len(traces))
		}
		wallSum += wall
		walls = append(walls, s.wall)
		tails = append(tails, s.tail)
	}
	mean := wallSum / float64(len(traces))
	m.set("trace.wall_s", mean)
	m.set("trace.overhead_s", median(walls)-median(plain))
	m.set("trace.unattributed_s", layers[layerBench])
	for _, l := range []string{layerExperiment, layerRemote, layerResults, layerCore, layerDetect, layerWorkload} {
		m.set("layer."+l+".self_s", layers[l])
	}
	m.set("experiment.tail_s", median(tails))
	// Backend time beyond a perfect split of the shard work over the
	// workers. In-process, the shard work is the traced Spec.Run spans of
	// the same regeneration; a remote worker's Spec.Run is out of sight,
	// so there it is the serial replay's.
	var dispatch []float64
	for i := range traces {
		backend, shardS := 0.0, 0.0
		for _, s := range tr.regenSpans(i) {
			switch s.name {
			case "backend.run":
				backend = float64(s.end-s.start) / 1e9
			case "spec.run":
				shardS += float64(s.end-s.start) / 1e9
			}
		}
		if shardS == 0 {
			shardS = serialShardS
		}
		dispatch = append(dispatch, backend-shardS/float64(workers))
	}
	m.set("experiment.dispatch_overhead_s", median(dispatch))
}

// sealCost times Record.ComputeHash, the canonical signature a record is
// sealed with, and measures the canonical encoding it hashes.
func sealCost(rec *results.Record) (ms, kb float64, err error) {
	var per []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		if _, err := rec.ComputeHash(); err != nil {
			return 0, 0, err
		}
		per = append(per, float64(time.Since(t))/1e6)
	}
	b, err := rec.CanonicalJSON()
	return median(per), float64(len(b)) / 1024, err
}
