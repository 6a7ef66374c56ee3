package remote

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// Remote is the distributed backend: Run starts an HTTP coordinator for
// the experiment's shards and returns when every shard has streamed in.
// Workers are either spawned locally (Procs > 0: the current binary
// re-exec'd in -remote-worker mode against the coordinator's loopback
// address — the one-machine work-stealing configuration) or started by
// hand on any machine that can reach Listen (Procs = 0: the two-terminal
// quickstart; the coordinator prints the -connect line to use).
//
// Crash tolerance comes from the leases, correctness from the spec
// purity contract: a worker that dies or stalls simply stops renewing,
// its chunk is re-issued, and since every shard's value is a pure
// function of (params, shard index), whoever re-runs it must produce the
// identical bytes — which the coordinator asserts on every duplicate.
type Remote struct {
	// Listen is the coordinator's listen address ("" = 127.0.0.1:0).
	// Use ":8080"-style addresses to accept workers from other machines.
	Listen string
	// Procs is the local worker count (0 = spawn none, wait for external
	// workers).
	Procs int
	// Workers bounds shard goroutines inside each worker (0 = serial).
	Workers int
	// Lease is the lease TTL (0 = DefaultLease).
	Lease time.Duration
	// Chunk is the shards-per-lease granularity (0 = guided: each grant
	// is ceil(U/16) of the U shards still queued; see Config.Chunk).
	Chunk int
	// Journal, when non-empty, is a directory holding one append-only
	// shard-result journal per experiment (<dir>/<experiment>.jsonl, the
	// results-store idiom). Accepted results are appended as they
	// arrive; a restarted coordinator pointed at the same directory
	// replays the journal and serves only the remainder. A journal from
	// a different run shape (experiment, params, shard count) is a hard
	// startup error.
	Journal string
	// Stderr receives coordinator notices and prefixed local-worker
	// diagnostics (nil = os.Stderr).
	Stderr io.Writer
}

// Name implements experiment.Backend.
func (Remote) Name() string { return "remote" }

func init() {
	experiment.RegisterBackendFactory("remote", func(o experiment.BackendOptions) (experiment.Backend, error) {
		return Remote{
			Listen: o.Listen, Procs: o.Procs, Workers: o.Workers,
			Lease: o.Lease, Chunk: o.Chunk, Journal: o.Journal,
		}, nil
	})
	experiment.RegisterWorkerMode(RunWorkerIfRequested)
}

// ReadHeaderTimeout bounds how long the coordinator's HTTP server waits
// for a request's headers, so a client that opens a connection and
// trickles a partial header (slowloris) cannot hold it open. Workers send
// their headers in one write; idle keep-alive connections between
// requests are not affected.
const ReadHeaderTimeout = 5 * time.Second

// Run implements experiment.Backend.
func (b Remote) Run(ctx context.Context, spec *experiment.Spec, p results.Params, n int, done func()) ([]any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return nil, ctx.Err()
	}
	stderr := b.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	cfg := Config{Chunk: b.Chunk, Lease: b.Lease, OnShardDone: done}
	if b.Journal != "" {
		if err := os.MkdirAll(b.Journal, 0o755); err != nil {
			return nil, fmt.Errorf("remote: journal directory %s: %w", b.Journal, err)
		}
		cfg.Journal = filepath.Join(b.Journal, spec.Name+".jsonl")
	}
	coord, err := NewCoordinator(spec, p, n, cfg)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	if r := coord.Replayed(); r > 0 {
		fmt.Fprintf(stderr, "remote: journal %s: resumed: %d of %d shards already complete\n", cfg.Journal, r, n)
	}

	addr := b.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: ReadHeaderTimeout}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String()
	if b.Procs > 0 {
		fmt.Fprintf(stderr, "remote: coordinator on %s serving %s (%d shards), spawning %d local workers\n",
			url, spec.Name, n, b.Procs)
	} else {
		fmt.Fprintf(stderr, "remote: coordinator on %s serving %s (%d shards)\n", url, spec.Name, n)
		fmt.Fprintf(stderr, "remote: waiting for workers — start each with: <binary> %s -connect %s\n", WorkerArg, url)
	}

	workers, err := b.spawnLocalWorkers(ctx, url, stderr)
	if err != nil {
		return nil, err
	}

	select {
	case <-coord.Finished():
	case <-ctx.Done():
		workers.stop()
		return nil, ctx.Err()
	case <-workers.exited:
		// Every local worker is gone. If that's because the job just
		// finished, fall through; otherwise the run can never complete.
		select {
		case <-coord.Finished():
		default:
			return nil, fmt.Errorf("remote: all %d local workers exited before the run completed: %w", b.Procs, workers.firstErr())
		}
	}
	// Every result is in, so the local workers have nothing left to do:
	// one may still be mid-shard on a duplicate or asleep in a Wait.
	workers.stop()
	st := coord.Stats()
	fmt.Fprintf(stderr, "remote: run complete: %d shards in %d grants\n", st.Shards, st.Grants)
	return coord.Values()
}

// localWorkers tracks the worker processes a coordinator spawned beside
// itself.
type localWorkers struct {
	cmds    []*exec.Cmd
	exited  chan struct{} // closed when every worker exited (never, when none spawned)
	mu      sync.Mutex
	errs    []error // worker exit failures; guarded by mu
	stopped bool    // stop killed the workers, so their exits are expected; guarded by mu
	wg      sync.WaitGroup
}

// slowWorkerEnv is the spawn-side half of the shardDelayEnv fault shim:
// when set to a time.Duration string, the FIRST local worker is started
// with that per-shard delay while the rest run at full speed — a
// reproducible straggler, so the CI straggler gate can run a stock
// `resultstore check -backend remote` with one slow worker. Never set
// in normal operation.
const slowWorkerEnv = "SPECINTERFERENCE_REMOTE_SLOW_WORKER"

// spawnLocalWorkers starts Procs re-exec'd -remote-worker processes
// against the coordinator URL, each with "[remote-worker N]"-framed
// stderr passthrough.
func (b Remote) spawnLocalWorkers(ctx context.Context, url string, stderr io.Writer) (*localWorkers, error) {
	lw := &localWorkers{exited: make(chan struct{})}
	if b.Procs <= 0 {
		return lw, nil // exited stays open: external workers come and go
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("remote: locate executable for local workers: %w", err)
	}
	var stderrMu sync.Mutex
	slow := os.Getenv(slowWorkerEnv)
	for i := 0; i < b.Procs; i++ {
		cmd := exec.CommandContext(ctx, exe, WorkerArg,
			"-connect", url, "-parallel", strconv.Itoa(b.Workers))
		cmd.Env = append(os.Environ(), workerEnvVar+"=1")
		if i == 0 && slow != "" {
			cmd.Env = append(cmd.Env, shardDelayEnv+"="+slow)
		}
		pipe, err := cmd.StderrPipe()
		if err != nil {
			lw.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			lw.stop()
			return nil, fmt.Errorf("remote: spawn local worker: %w", err)
		}
		lw.cmds = append(lw.cmds, cmd)
		lw.wg.Add(1)
		go func(id int, cmd *exec.Cmd, pipe io.Reader) {
			defer lw.wg.Done()
			experiment.CopyPrefixedLines(stderr, &stderrMu, fmt.Sprintf("[remote-worker %d] ", id), pipe)
			if err := cmd.Wait(); err != nil {
				lw.mu.Lock()
				stopped := lw.stopped
				if !stopped {
					lw.errs = append(lw.errs, fmt.Errorf("worker %d: %w", id, err))
				}
				lw.mu.Unlock()
				if stopped {
					return
				}
				stderrMu.Lock()
				fmt.Fprintf(stderr, "[remote-worker %d] exited: %v\n", id, err)
				stderrMu.Unlock()
			}
		}(i, cmd, pipe)
	}
	go func() {
		lw.wg.Wait()
		close(lw.exited)
	}()
	return lw, nil
}

// firstErr reports the first worker failure, or a placeholder when the
// workers all exited zero without finishing the job.
func (lw *localWorkers) firstErr() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if len(lw.errs) > 0 {
		return lw.errs[0]
	}
	return fmt.Errorf("workers exited cleanly with shards outstanding")
}

// stop kills every worker process and waits for them all to exit. The
// workers were stopped on purpose, so their exits are not reported.
func (lw *localWorkers) stop() {
	lw.mu.Lock()
	lw.stopped = true
	lw.mu.Unlock()
	for _, cmd := range lw.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	lw.wg.Wait()
}
