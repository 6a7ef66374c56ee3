package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
)

// reapGrace is how long finished workers get to exit before they are
// killed: one lease-poll interval at the default lease plus a second, as
// the remote backend allows.
const reapGrace = 2 * time.Second

// tracedRemote is an experiment.Backend that runs shards the way
// remote.Remote does with procs local workers, but serves the coordinator
// through a countingHandler so the scheduler's work is counted and timed
// at the HTTP boundary. Its spans hang under the regeneration's
// backend.run span.
type tracedRemote struct {
	rt         *regenTrace
	shardLayer string
	wire       *wireStats
}

func (*tracedRemote) Name() string { return "remote" }

func (b *tracedRemote) Run(ctx context.Context, spec *experiment.Spec, p results.Params, n int, done func()) ([]any, error) {
	tr, regen, parent := b.rt.tr, b.rt.regen, b.rt.backend
	cs := tr.begin(regen, parent, "remote.coordinator_start", layerRemote)
	coord, err := remote.NewCoordinator(spec, p, n, remote.Config{OnShardDone: done})
	if err != nil {
		tr.finish(cs)
		return nil, err
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.finish(cs)
		return nil, fmt.Errorf("remote: listen: %w", err)
	}
	h := &countingHandler{next: coord.Handler(), tr: tr, regen: regen, parent: parent,
		leaseWorker: map[string]string{}, seen: map[int]bool{}}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once Close runs below
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	tr.finish(cs)

	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("remote: locate executable for local workers: %w", err)
	}
	url := "http://" + ln.Addr().String()
	exited := make(chan error, procs)
	var cmds []*exec.Cmd
	spawned := map[int]int64{} // pid -> spawn time
	killAll := func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // the worker may already have exited
		}
	}
	for i := 0; i < procs; i++ {
		cmd := exec.Command(exe, remote.WorkerArg, "-connect", url, "-parallel", "0")
		t := tr.now()
		if err := cmd.Start(); err != nil {
			killAll()
			for range cmds {
				<-exited
			}
			return nil, fmt.Errorf("remote: spawn local worker: %w", err)
		}
		spawned[cmd.Process.Pid] = t
		cmds = append(cmds, cmd)
		go func() { exited <- cmd.Wait() }()
	}

	live := len(cmds)
	var runErr error
wait:
	for {
		select {
		case <-coord.Finished():
			break wait
		case <-ctx.Done():
			runErr = ctx.Err()
			killAll()
			break wait
		case err := <-exited:
			if live--; live == 0 {
				select {
				case <-coord.Finished():
				default:
					runErr = fmt.Errorf("remote: every local worker exited before the run completed (last: %v)", err)
				}
				break wait
			}
		}
	}
	rs := tr.begin(regen, parent, "remote.reap", layerRemote)
	grace := time.After(reapGrace)
	for live > 0 {
		select {
		case <-exited:
			live--
		case <-grace:
			killAll()
			grace = nil
		}
	}
	tr.finish(rs)
	h.synthesize(spawned, b.shardLayer)
	b.wire.add(h, n)
	if runErr != nil {
		return nil, runErr
	}
	return coord.Values()
}

// wireCall is one lease or results request of one worker.
type wireCall struct {
	worker     string
	results    bool
	start, end int64
}

// countingHandler wraps Coordinator.Handler(). It counts lease grants,
// result lines and byte-equal duplicates in one unit each, times every
// request, and records which worker made it, so the time a worker spends
// between requests can be attributed to it afterwards.
type countingHandler struct {
	next          http.Handler
	tr            *tracer
	regen, parent int

	mu          sync.Mutex
	leaseWorker map[string]string // lease id -> worker
	seen        map[int]bool      // shards with an accepted result
	calls       []wireCall
	leases      int
	backups     int
	lines       int
	duplicates  int
	bodyBytes   int64
	jobBytes    int
	leaseMS     []float64
	resultMS    []float64
	startS      []float64 // spawn -> first lease request, per worker
}

// recorder keeps a copy of a response so the handler can decode it.
type recorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := &recorder{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(rec, r)
	end := h.tr.now()
	kind := strings.TrimPrefix(r.URL.Path, "/")
	h.tr.add(h.regen, h.parent, "remote."+kind, layerRemote, start, end)

	h.mu.Lock()
	defer h.mu.Unlock()
	h.bodyBytes += int64(len(body) + rec.body.Len())
	ms := float64(end-start) / 1e6
	switch kind {
	case "job":
		h.jobBytes = rec.body.Len()
	case "lease":
		var req remote.LeaseRequest
		var grant remote.Lease
		if json.Unmarshal(body, &req) != nil || json.Unmarshal(rec.body.Bytes(), &grant) != nil {
			return // a rejected request; the coordinator already answered it
		}
		h.leaseMS = append(h.leaseMS, ms)
		h.calls = append(h.calls, wireCall{worker: req.Worker, start: start, end: end})
		if grant.ID != "" {
			h.leases++
			h.leaseWorker[grant.ID] = req.Worker
			if grant.Backup {
				h.backups++
			}
		}
	case "results":
		h.resultMS = append(h.resultMS, ms)
		worker := ""
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var rl remote.ResultLine
			if json.Unmarshal(line, &rl) != nil {
				continue
			}
			h.lines++
			worker = h.leaseWorker[rl.Lease]
			if rec.status == http.StatusOK && rl.Err == "" {
				// The coordinator acknowledges a repeat only when its
				// bytes equal the accepted ones.
				if h.seen[rl.Shard] {
					h.duplicates++
				}
				h.seen[rl.Shard] = true
			}
		}
		h.calls = append(h.calls, wireCall{worker: worker, results: true, start: start, end: end})
	}
}

// synthesize adds the spans a worker spends between its requests: from
// spawn to its first lease request (process start, GET /job, Prepare),
// before each results post (running the shard and encoding its line),
// and before each later lease request (polling). Workers run shards
// serially, so the gaps are theirs alone.
func (h *countingHandler) synthesize(spawned map[int]int64, shardLayer string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	byWorker := map[string][]wireCall{}
	for _, c := range h.calls {
		if c.worker != "" {
			byWorker[c.worker] = append(byWorker[c.worker], c)
		}
	}
	workers := make([]string, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, worker := range workers {
		calls := byWorker[worker]
		sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
		if t, ok := spawned[workerPID(worker)]; ok && t < calls[0].start {
			h.tr.add(h.regen, h.parent, "remote.worker_start", layerRemote, t, calls[0].start)
			h.startS = append(h.startS, float64(calls[0].start-t)/1e9)
		}
		for i := 1; i < len(calls); i++ {
			prev, cur := calls[i-1], calls[i]
			if cur.start <= prev.end {
				continue
			}
			if cur.results {
				h.tr.add(h.regen, h.parent, "remote.worker_shard", shardLayer, prev.end, cur.start)
			} else {
				h.tr.add(h.regen, h.parent, "remote.worker_poll", layerRemote, prev.end, cur.start)
			}
		}
	}
}

// workerPID extracts the process id from a remote worker name, which the
// worker forms as host-pid-seq.
func workerPID(worker string) int {
	parts := strings.Split(worker, "-")
	if len(parts) < 3 {
		return 0
	}
	pid, _ := strconv.Atoi(parts[len(parts)-2]) // 0 on a malformed name: no spawn match
	return pid
}

// wireStats accumulates the remote scheduler's counters over every
// traced remote regeneration.
type wireStats struct {
	regens, shards                     int
	leases, lines, duplicates, backups int
	bodyBytes                          int64
	jobBytes                           int
	leaseMS, resultMS, startS          []float64
}

func (s *wireStats) add(h *countingHandler, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s.regens++
	s.shards += n
	s.leases += h.leases
	s.lines += h.lines
	s.duplicates += h.duplicates
	s.backups += h.backups
	s.bodyBytes += h.bodyBytes
	s.jobBytes = h.jobBytes
	s.leaseMS = append(s.leaseMS, h.leaseMS...)
	s.resultMS = append(s.resultMS, h.resultMS...)
	s.startS = append(s.startS, h.startS...)
}

// metrics reports the counters per regeneration and the timings as
// percentiles.
func (s *wireStats) metrics(m metrics) {
	per := func(x int) float64 { return float64(x) / float64(max(s.regens, 1)) }
	m.set("remote.worker_start_s", median(s.startS))
	m.set("remote.lease_rtt_ms.p50", quantile(s.leaseMS, 0.5))
	m.set("remote.lease_rtt_ms.p99", quantile(s.leaseMS, 0.99))
	m.set("remote.result_post_ms.p50", quantile(s.resultMS, 0.5))
	m.set("remote.result_post_ms.p99", quantile(s.resultMS, 0.99))
	m.set("remote.leases", per(s.leases))
	m.set("remote.result_lines", per(s.lines))
	m.set("remote.duplicate_lines", per(s.duplicates))
	m.set("remote.backups_issued", per(s.backups))
	useful := 0.0
	if s.lines > 0 {
		useful = float64(s.shards) / float64(s.lines)
	}
	m.set("remote.useful_ratio", useful)
	m.set("remote.wire_bytes_per_shard", float64(s.bodyBytes)/float64(max(s.shards, 1)))
	m.set("remote.job_bytes", float64(s.jobBytes))
}
