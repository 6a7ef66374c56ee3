// Command perfbench is the end-to-end benchmark of the artifact
// regeneration pipeline. Each workload regenerates one paper artifact
// through experiment.Run on a named backend, back to back in a closed loop
// with one client, and checks every record it produces against the
// expected canonical hash and the artifact's own check.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload table1-inproc --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package into .bench_build/ and runs it with the
// given flags. With --trace 0 the last line of standard output is a JSON
// object holding the end-to-end metrics (wall_s, cpu_s, setup_s,
// peak_rss_mb) and the attempted and failed regeneration counts; with
// --trace 1 a separate traced run reports the per-layer metrics instead,
// and writes its spans to .bench_build/spans/<workload>.jsonl.
// --report runs every workload untraced and traced, each in a fresh
// process, and prints one table of all of it:
//
//	bash perfbench/run.sh --report --seconds 10
//
// BENCHMARK.json at the repository root documents every workload and
// metric. Every number is measured from outside the program: spans and
// counters wrap calls into the modules' public functions, and nothing
// under internal/ knows it is being measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

func main() {
	// Backend workers re-exec this binary; they serve and exit here.
	experiment.RunWorkerIfRequested()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options is one benchmark invocation.
type options struct {
	workload *workload
	seed     uint64
	duration time.Duration
	// minRegens is the fewest timed regenerations a run makes, however
	// long they take.
	minRegens int
	log       io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed (the Figure 11 measurement seed; the other workloads have none)")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	report := fs.Bool("report", false, "run every workload untraced and traced and print one table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *report {
		if err := runReport(stdout, stderr, *seed, *seconds); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{workload: w, seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), minRegens: 3, log: stderr}
	var res result
	switch *trace {
	case 0:
		res, err = measure(o)
	case 1:
		res, err = traced(o)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// sample is one timed regeneration.
type sample struct {
	wall, setup, cpu float64 // seconds
	err              error
}

// regenerate times one experiment.Run from entry to a sealed, verified
// record. setup is the time to the first shard-completion callback.
func regenerate(spec *experiment.Spec, p results.Params, b experiment.Backend, wantHash string, check func(*results.Record) error) sample {
	var first atomic.Int64
	cpu0 := cpuSeconds()
	t0 := time.Now()
	done := func() { first.CompareAndSwap(0, int64(time.Since(t0))+1) }
	rec, err := experiment.Run(context.Background(), spec, p, b, done)
	if err == nil {
		err = verify(rec, wantHash, check)
	}
	wall := time.Since(t0).Seconds()
	return sample{wall: wall, setup: float64(first.Load()-1) / 1e9, cpu: cpuSeconds() - cpu0, err: err}
}

// expectedHash returns the canonical hash the workload must reproduce at
// the run's seed: the stored one at the default seed, otherwise the hash
// of a serial in-process run made before timing starts.
func (o options) expectedHash(spec *experiment.Spec, p results.Params) (string, error) {
	if o.workload.usesStoredHash(o.seed) {
		return o.workload.expectedHash, nil
	}
	rec, _, err := serialRun(spec, p)
	if err != nil {
		return "", fmt.Errorf("serial reference run: %w", err)
	}
	if err := o.workload.check(rec); err != nil {
		return "", fmt.Errorf("serial reference run: %w", err)
	}
	return rec.Hash, nil
}

// measure is the untraced run: one warm-up regeneration, then timed ones
// until the duration is spent, reporting the end-to-end metrics.
func measure(o options) (result, error) {
	w := o.workload
	spec, err := experiment.Lookup(w.experiment)
	if err != nil {
		return result{}, err
	}
	p := w.params(o.seed)
	b := w.backend()
	// The warm-up fills the victim cache and the allocator's pools. Peak
	// memory is read right after it, from a fresh process that has made
	// one regeneration as a CLI run does, so the figure does not depend on
	// where garbage collections happen to land in the timed loop. A
	// warm-up failure still counts.
	warmRec, warmErr := experiment.Run(context.Background(), spec, p, b, nil)
	peak := peakRSSMB()
	want, err := o.expectedHash(spec, p)
	if err != nil {
		return result{}, err
	}
	if warmErr == nil {
		warmErr = verify(warmRec, want, w.check)
	}

	var walls, setups, cpus []float64
	attempted, failed := 0, 0
	count := func(s sample) {
		attempted++
		if s.err != nil {
			failed++
			fmt.Fprintf(o.log, "perfbench: %s: regeneration %d failed: %v\n", w.name, attempted, s.err)
			return
		}
		walls = append(walls, s.wall)
		setups = append(setups, s.setup)
		cpus = append(cpus, s.cpu)
	}
	if warmErr != nil {
		count(sample{err: warmErr})
	}
	deadline := time.Now().Add(o.duration)
	for len(walls)+failed < o.minRegens || time.Now().Before(deadline) {
		count(regenerate(spec, p, b, want, w.check))
	}
	if len(walls) == 0 {
		walls, setups, cpus = []float64{0}, []float64{0}, []float64{0}
	}
	logWall(o.log, w.name, "wall_s", walls)
	m := metrics{}
	m.set("wall_s", median(walls))
	m.set("cpu_s", median(cpus))
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", peak)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// logWall prints a timing's median and its tail percentile with the
// sample count to the log.
func logWall(log io.Writer, workload, name string, xs []float64) {
	fmt.Fprintf(log, "%s: %s median %.4f", workload, name, median(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		fmt.Fprintf(log, ", p%d %.4f", p, quantile(xs, float64(p)/100))
	} else {
		fmt.Fprintf(log, ", no tail percentile")
	}
	fmt.Fprintf(log, " (n=%d)\n", len(xs))
}
