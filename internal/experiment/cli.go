package experiment

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"specinterference/internal/results"
)

// CLIConfig wires one experiment binary onto the shared driver: the
// driver owns the common machinery — the -parallel/-backend/-procs/
// -json/-store/-progress/-scale flags, hidden shard-worker mode, backend
// selection, store recording — while the config supplies what actually
// differs per experiment: its flags, and how a finished record renders.
type CLIConfig struct {
	// Name is the binary name, used for diagnostics and flag errors.
	Name string
	// Experiment is the registry name of the spec to run.
	Experiment string
	// Flags registers the experiment-specific flags on fs and returns a
	// builder invoked after parsing to validate them and produce the run
	// parameters.
	Flags func(fs *flag.FlagSet) func() (results.Params, error)
	// Text writes the human-readable rendering of a finished record to w.
	Text func(w io.Writer, rec *results.Record) error
	// JSON returns the -json document for a finished record. The driver
	// encodes it as a single line on stdout, preserving each binary's
	// established machine-readable shape.
	JSON func(rec *results.Record) (any, error)
	// After, when non-nil, runs post-output checks (vulnmatrix -verify);
	// a non-nil error exits 1 after printing it to stderr, and the hook
	// may exit directly for custom diagnostics.
	After func(rec *results.Record, jsonMode bool) error
}

// progressInterval is how often -progress reports to stderr.
const progressInterval = 2 * time.Second

// Main is the shared experiment-CLI entry point.
func Main(cfg CLIConfig) {
	// A process spawned by the subprocess backend never comes back from
	// this call: it serves its shard range and exits.
	RunWorkerIfRequested()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.Name, err)
		os.Exit(1)
	}

	fs := flag.NewFlagSet(cfg.Name, flag.ExitOnError)
	build := cfg.Flags(fs)
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = one per CPU in-process, serial inside each subprocess/remote worker); results identical at any value")
	backendName := fs.String("backend", "inprocess", "execution backend: inprocess (worker goroutines), subprocess (re-exec'd worker processes) or remote (HTTP coordinator leasing shard chunks to workers)")
	procs := fs.Int("procs", 0, "worker processes: subprocess workers (0 = one per CPU) or local remote workers spawned next to the coordinator (0 = none, wait for external -remote-worker processes)")
	listen := fs.String("listen", "", "remote backend: coordinator listen address (default 127.0.0.1:0, a loopback ephemeral port)")
	lease := fs.Duration("lease", 0, "remote backend: shard-lease time-to-live before unfinished work is re-issued (0 = 10s)")
	chunk := fs.Int("chunk", 0, "shards per lease/dispatch chunk for the remote and subprocess schedulers (0 = automatic: subprocess uses about four chunks per worker; remote grants ceil(U/16) of the U shards still queued)")
	journal := fs.String("journal", "", "remote backend: shard-result journal directory for resumable coordinator restarts (accepted results append to <dir>/<experiment>.jsonl; a restarted run replays it and serves only the remainder)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the text rendering")
	storeDir := fs.String("store", "", "append a run record to this results-store directory")
	progress := fs.Bool("progress", false, "report shard completion to stderr (for long sweeps; off by default)")
	scale := fs.Int("scale", 1, "multiply the experiment's trial-style counts by N (larger sweeps now that shards span processes)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (analyze with `go tool pprof`)")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		die(fmt.Errorf("unexpected arguments: %v", fs.Args()))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		// Main exits through die() on every error path, so profile teardown
		// cannot rely on defers alone; die stops the profile before exiting.
		stop := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stop()
		prevDie := die
		die = func(err error) {
			stop()
			prevDie(err)
		}
	}
	if *memProfile != "" {
		prevDie, prof := die, *memProfile
		writeHeap := func() error {
			f, err := os.Create(prof)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture before snapshotting
			return pprof.WriteHeapProfile(f)
		}
		defer func() {
			if err := writeHeap(); err != nil {
				prevDie(err)
			}
		}()
	}

	spec, err := Lookup(cfg.Experiment)
	if err != nil {
		die(err)
	}
	p, err := build()
	if err != nil {
		die(err)
	}
	if *scale != 1 {
		if *scale < 1 {
			die(fmt.Errorf("-scale must be >= 1, got %d", *scale))
		}
		if spec.Scale == nil {
			die(fmt.Errorf("-scale is not supported: this experiment has no trial-count axis"))
		}
		p = spec.Scale(p, *scale)
	}
	backend, err := NewBackendOptions(*backendName, BackendOptions{
		Procs: *procs, Workers: *parallel,
		Chunk: *chunk, Listen: *listen, Lease: *lease, Journal: *journal,
	})
	if err != nil {
		die(err)
	}
	n, err := spec.Plan(p)
	if err != nil {
		die(err)
	}

	var (
		reporter *progressReporter
		done     func()
	)
	if *progress {
		reporter = startProgress(os.Stderr, cfg.Name, n, progressInterval)
		done = reporter.tick
	}
	start := time.Now()
	rec, err := Run(context.Background(), spec, p, backend, done)
	reporter.finish()
	if err != nil {
		die(err)
	}

	if *storeDir != "" {
		rec.Meta.Backend = backend.Name()
		if backend.Name() != "inprocess" {
			rec.Meta.Procs = *procs
		}
		if err := results.RecordRun(*storeDir, rec, *parallel, time.Since(start)); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %s run %.12s to %s\n", rec.Experiment, rec.Hash, *storeDir)
	}

	if *jsonOut {
		doc, err := cfg.JSON(rec)
		if err != nil {
			die(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			die(err)
		}
	} else if err := cfg.Text(os.Stdout, rec); err != nil {
		die(err)
	}

	if cfg.After != nil {
		if err := cfg.After(rec, *jsonOut); err != nil {
			die(err)
		}
	}
}
