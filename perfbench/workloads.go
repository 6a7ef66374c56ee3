package main

import (
	"fmt"
	"io"

	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
	"specinterference/internal/schemes"
)

// procs is the number of worker goroutines or processes a backend runs
// shards on, one per core of the 2-core host the benchmark was sized on.
const procs = 2

// Layer names. A span's layer is the module whose public call it times.
const (
	layerBench      = "bench" // the regeneration root: time no layer call covers
	layerExperiment = "experiment"
	layerRemote     = "remote"
	layerResults    = "results"
	layerCore       = "core"
	layerDetect     = "detect"
	layerWorkload   = "workload"
)

// workload is one artifact regeneration the benchmark repeats in a closed
// loop: one client, the next regeneration starts when the last is verified.
type workload struct {
	name string
	// experiment is the experiment-engine spec name.
	experiment string
	// remote selects the remote backend with procs local worker
	// processes; otherwise the in-process backend with workers goroutines.
	remote bool
	// workers is the in-process backend's worker goroutines.
	workers int
	// seeded workloads take --seed as the measurement seed; the others
	// have no seed axis and ignore it.
	seeded bool
	// defaultSeed is the seed expectedHash was recorded at.
	defaultSeed uint64
	// expectedHash is the canonical record hash at defaultSeed, confirmed
	// identical on the inprocess, subprocess and remote backends.
	expectedHash string
	// shardLayer is the module one shard's Spec.Run spends its time in.
	shardLayer string
	params     func(seed uint64) results.Params
	// check is the artifact check a regenerated record must pass on top
	// of its canonical hash.
	check func(rec *results.Record) error
}

var workloads = []*workload{
	{
		name:         "table1-inproc",
		workers:      procs,
		experiment:   results.ExpTable1,
		expectedHash: "65eae81ae1b0eb27bb618152d930165c9f54e9702bb95fece2ed0f057a939102",
		shardLayer:   layerCore,
		params: func(uint64) results.Params {
			return results.Params{Schemes: schemes.Names()}
		},
		check: checkTable1,
	},
	{
		name:         "channel-remote",
		experiment:   results.ExpFigure11,
		remote:       true,
		seeded:       true,
		defaultSeed:  1,
		expectedHash: "b02c08a6d04841783209e30364f5f0fc8c84c3c0e8110a37d0a673b4451fdcea",
		shardLayer:   layerCore,
		params: func(seed uint64) results.Params {
			return results.Params{PoCs: []string{"dcache", "icache"}, Bits: 64, Reps: []int{1, 3, 5, 9, 15}, Seed: seed}
		},
		check: checkFigure11,
	},
	{
		name: "defense-inproc",
		// One goroutine: two that are CPU-bound for seconds on a shared
		// 2-core host made wall_s measure the neighbours' load, not
		// System.Step.
		workers:      1,
		experiment:   results.ExpFigure12,
		expectedHash: "6ae2c5a89253ccd3cc465596d7228e0a994c82a1f3f00b5844dc3f4ce1cf2a5b",
		shardLayer:   layerWorkload,
		params: func(uint64) results.Params {
			// defensebench's defaults.
			return results.Params{Iters: 2000, Schemes: []string{"fence-spectre", "fence-futuristic"}}
		},
		check: checkFigure12,
	},
	{
		name:         "concordance-inproc",
		workers:      procs,
		experiment:   results.ExpConcordance,
		expectedHash: "837b0052e741c7ee5456dd52982a10b8f402d6085bc8637ef66914a777274321",
		shardLayer:   layerDetect,
		params: func(uint64) results.Params {
			return results.Params{Schemes: schemes.Names()}
		},
		check: checkConcordance,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// backend returns the backend the untraced loop regenerates on.
func (w *workload) backend() experiment.Backend {
	if w.remote {
		return remote.Remote{Procs: procs, Stderr: io.Discard}
	}
	return experiment.InProcess{Workers: w.workers}
}

// concurrency is how many shards the workload's backend runs at once.
func (w *workload) concurrency() int {
	if w.remote {
		return procs
	}
	return w.workers
}

// usesStoredHash reports whether seed is the one expectedHash was
// recorded at; any other seed needs a serial reference run.
func (w *workload) usesStoredHash(seed uint64) bool {
	return !w.seeded || seed == w.defaultSeed
}

// verify is the output check behind the failed count: the record must be
// structurally valid, carry the expected canonical hash and pass the
// artifact's own check.
func verify(rec *results.Record, wantHash string, check func(*results.Record) error) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if rec.Hash != wantHash {
		return fmt.Errorf("canonical hash %.12s, want %.12s", rec.Hash, wantHash)
	}
	return check(rec)
}

// checkTable1 requires every cell to match the paper's Table 1.
func checkTable1(rec *results.Record) error {
	want := core.ExpectedTable1()
	cells := rec.Table1.Cells
	if n := core.MatrixShards(rec.Params.Schemes); len(cells) != n {
		return fmt.Errorf("table1: %d cells, want %d", len(cells), n)
	}
	bad := 0
	for _, c := range cells {
		if want[c.Gadget+"|"+c.Ordering][c.Scheme] != c.Vulnerable {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("table1: %d of %d cells differ from the paper", bad, len(cells))
	}
	return nil
}

// checkConcordance requires the detector and the simulator to agree on
// every cell, as detect.CheckCells decides it.
func checkConcordance(rec *results.Record) error {
	cells := make([]detect.Cell, 0, len(rec.Concordance.Cells))
	for _, c := range rec.Concordance.Cells {
		g, err := core.ParseGadget(c.Gadget)
		if err != nil {
			return err
		}
		o, err := core.ParseOrdering(c.Ordering)
		if err != nil {
			return err
		}
		cells = append(cells, detect.Cell{
			Scheme: c.Scheme, Gadget: g, Ordering: o,
			Empirical: c.Empirical, Detector: c.Detector, Mechanism: c.Mechanism,
			Match: c.Match, Exception: c.Exception,
		})
	}
	if n := detect.Shards(rec.Params.Schemes); len(cells) != n {
		return fmt.Errorf("concordance: %d cells, want %d", len(cells), n)
	}
	return detect.CheckCells(cells)
}

// checkFigure11 requires one curve per PoC and one point per reps value,
// each decoding every bit with an error rate in [0, 1].
func checkFigure11(rec *results.Record) error {
	p := rec.Params
	if len(rec.Figure11.Curves) != len(p.PoCs) {
		return fmt.Errorf("figure11: %d curves, want %d", len(rec.Figure11.Curves), len(p.PoCs))
	}
	for _, c := range rec.Figure11.Curves {
		if len(c.Points) != len(p.Reps) {
			return fmt.Errorf("figure11: %s curve has %d points, want %d", c.PoC, len(c.Points), len(p.Reps))
		}
		for i, pt := range c.Points {
			if pt.Reps != p.Reps[i] || pt.Bits != p.Bits || pt.ErrorRate < 0 || pt.ErrorRate > 1 || pt.Bps <= 0 {
				return fmt.Errorf("figure11: %s point %d is malformed: %+v", c.PoC, i, pt)
			}
		}
	}
	return nil
}

// checkFigure12 requires a positive slowdown for every kernel and scheme,
// and a mean for every scheme.
func checkFigure12(rec *results.Record) error {
	f := rec.Figure12
	if len(f.Rows) == 0 {
		return fmt.Errorf("figure12: no rows")
	}
	for _, s := range rec.Params.Schemes {
		if f.Mean[s] <= 0 {
			return fmt.Errorf("figure12: no mean slowdown for %s", s)
		}
		for _, r := range f.Rows {
			if r.BaselineCycles <= 0 || r.Slowdown[s] <= 0 {
				return fmt.Errorf("figure12: %s row lacks a %s slowdown", r.Workload, s)
			}
		}
	}
	return nil
}
