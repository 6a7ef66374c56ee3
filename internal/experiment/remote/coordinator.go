package remote

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// DefaultLease is the lease TTL when none is configured: long enough
// that a healthy worker renewing at TTL/3 never loses a lease to
// scheduling noise, short enough that a crashed worker's chunk is back
// in the queue quickly.
const DefaultLease = 10 * time.Second

// maxControlBody bounds the JSON body of a /lease or /renew request. A
// real one carries a worker name, a run token and a lease id — well under
// a kilobyte — so anything larger is refused with 413 before it is
// buffered.
const maxControlBody = 64 << 10

// maxResultBody bounds one /results request: both its whole body and
// each line in it. A line is one shard result, far below the cap; a
// body past it is refused with 413, and the lines read before the cap
// stay accepted.
const maxResultBody = 64 << 20

// guidedDivisor sets the unpinned grant size: ceil(U/guidedDivisor)
// shards, U being the shards still queued. See grantSize.
const guidedDivisor = 16

// Config tunes a Coordinator.
type Config struct {
	// Chunk pins the shards-per-lease granularity. 0 means guided: each
	// grant is ceil(U/16) of the U shards still queued, so grants start
	// large and shrink to one shard as the queue drains, and a
	// straggler's last chunk is small. Chunking only ever moves
	// scheduling, never values.
	Chunk int
	// Lease is the lease TTL (0 = DefaultLease).
	Lease time.Duration
	// Journal is the path of the shard-result journal file ("" = no
	// journal): a run header plus every accepted result, appended as
	// JSONL. An existing compatible journal is replayed on startup so a
	// restarted coordinator serves only the remainder; an incompatible
	// one (different experiment, params signature or shard count) is a
	// hard startup error, never a silent partial reuse.
	Journal string
	// OnShardDone, when non-nil, fires once per newly completed shard
	// (the engine's progress hook), replayed journal shards included.
	// Duplicate results never re-fire it.
	OnShardDone func()
	// Now overrides the clock, for tests (nil = time.Now).
	Now func() time.Time
}

// leaseState is one outstanding grant.
type leaseState struct {
	id      string
	seq     int // numeric id, for a deterministic requeue order
	worker  string
	span    experiment.Span
	expires time.Time // re-issue deadline: last renewal + TTL
	// started is set once a result arrived under this lease; an
	// unstarted grant is returned verbatim to a re-polling worker, so a
	// lease response lost in transit never orphans a chunk for a TTL.
	started bool
}

// Coordinator owns one experiment run's shard state machine: a queue of
// unleased spans, the outstanding leases, and the accepted results. It
// is an http.Handler serving the wire protocol; every mutation happens
// under one mutex, so concurrent workers see a consistent queue.
type Coordinator struct {
	spec   *experiment.Spec
	params results.Params
	n      int
	run    string // per-run random token every request must echo
	chunk  int    // Config.Chunk: the pinned grant size when > 0, else guided
	lease  time.Duration
	onDone func()
	now    func() time.Time

	// Everything below mu is mutable run state; the "guarded by mu"
	// comments are load-bearing — speclint's lockdiscipline analyzer
	// enforces that annotated fields are only touched under the mutex or
	// in functions marked //speclint:holds mu.
	mu      sync.Mutex
	pending []experiment.Span          // unleased spans, FIFO; guarded by mu
	leases  map[string]*leaseState     // outstanding grants; guarded by mu
	issued  map[string]experiment.Span // guarded by mu
	// byWorker maps a worker name to its latest lease id, for idempotent
	// re-polls and abandoned-grant release. An entry goes with its
	// lease, keeping the map bounded by the live worker set.
	byWorker  map[string]string // guarded by mu
	nextID    int               // grants issued so far; guarded by mu
	done      []bool            // per-shard completion; guarded by mu
	values    []any             // decoded shard values, by index; guarded by mu
	raw       [][]byte          // accepted result bytes, for the byte-equality assertion; guarded by mu
	remaining int               // guarded by mu
	replayed  int               // shards restored from the journal at startup; guarded by mu
	journal   *journal          // guarded by mu
	fatal     error             // guarded by mu
	// finished is closed exactly once (under mu) and waited on without
	// it; channel close/receive has its own happens-before edge, so the
	// field is deliberately not annotated.
	finished chan struct{}
}

// newRunToken mints the per-run random token that scopes every lease,
// renewal and result line to this coordinator instance: predictable
// lease ids (L1, L2, ...) collide across runs, so a worker left talking
// to a restarted coordinator on the same port must be told "different
// run" (410) instead of having its stale payloads accepted.
func newRunToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("remote: run token entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// NewCoordinator builds the coordinator for shards [0, n) of spec at
// params, replaying cfg.Journal first when one is configured. The
// caller serves Handler() somewhere workers can reach, waits on
// Finished, and Closes the coordinator when done with it.
//
// Construction-time exclusivity: the coordinator is not published to any
// other goroutine until this returns, so guarded fields are written
// without the mutex here (hence the holds annotation).
//
//speclint:holds mu
func NewCoordinator(spec *experiment.Spec, p results.Params, n int, cfg Config) (*Coordinator, error) {
	lease := cfg.Lease
	if lease <= 0 {
		lease = DefaultLease
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Coordinator{
		spec: spec, params: p, n: n,
		run:   newRunToken(),
		chunk: cfg.Chunk, lease: lease,
		onDone: cfg.OnShardDone, now: now,
		leases:    map[string]*leaseState{},
		issued:    map[string]experiment.Span{},
		byWorker:  map[string]string{},
		done:      make([]bool, n),
		values:    make([]any, n),
		raw:       make([][]byte, n),
		remaining: n,
		finished:  make(chan struct{}),
	}
	if cfg.Journal != "" {
		j, replayed, err := openJournal(cfg.Journal, spec, p, n, c.run, c.replayEntry)
		if err != nil {
			return nil, err
		}
		c.journal = j
		c.replayed = replayed
	}
	// The queue holds only what is left to serve: the contiguous
	// not-done sub-spans of [0, n) — all of it on a fresh run, the
	// remainder after a journal replay.
	c.requeueUndone(experiment.Span{Start: 0, End: n})
	if c.remaining == 0 {
		close(c.finished)
	}
	return c, nil
}

// replayEntry restores one journaled shard result during startup — the
// same acceptance a live result gets, minus re-journaling. Any defect
// (a failure line, an out-of-range index, undecodable bytes, two
// entries for one shard that disagree) makes the whole journal corrupt.
// Runs only inside NewCoordinator, before the coordinator is published
// to any other goroutine.
//
//speclint:holds mu
func (c *Coordinator) replayEntry(sl experiment.ShardLine) error {
	if sl.Err != "" {
		return fmt.Errorf("entry for shard %d records a failure; failures are never journaled", sl.Shard)
	}
	if sl.Shard < 0 || sl.Shard >= c.n {
		return fmt.Errorf("entry shard %d out of range [0,%d)", sl.Shard, c.n)
	}
	if c.done[sl.Shard] {
		if bytes.Equal(c.raw[sl.Shard], sl.Value) {
			return nil
		}
		return fmt.Errorf("shard %d journaled twice with different bytes", sl.Shard)
	}
	v, err := experiment.DecodeShard(c.spec, sl.Value)
	if err != nil {
		return fmt.Errorf("shard %d: undecodable journaled value: %w", sl.Shard, err)
	}
	c.values[sl.Shard] = v
	c.raw[sl.Shard] = append([]byte(nil), sl.Value...)
	c.done[sl.Shard] = true
	c.remaining--
	if c.onDone != nil {
		c.onDone()
	}
	return nil
}

// Replayed reports how many shards the startup journal replay restored.
func (c *Coordinator) Replayed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayed
}

// Close releases the coordinator's journal handle (a no-op without one).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.journal
	c.journal = nil
	return j.close()
}

// Finished is closed when every shard has a result or the run failed.
func (c *Coordinator) Finished() <-chan struct{} { return c.finished }

// Values returns the decoded shard values in index order once the run
// finished, or the fatal error that stopped it.
func (c *Coordinator) Values() ([]any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.remaining != 0 {
		return nil, fmt.Errorf("remote: run incomplete: %d of %d shards outstanding", c.remaining, c.n)
	}
	return c.values, nil
}

// fail records the first fatal error and releases waiters. Once the run
// is over — failed or already complete — further faults are no-ops: a
// straggler posting garbage after the last shard landed must not close
// finished twice or retroactively taint a completed run (its line is
// still rejected by the caller). Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) fail(err error) {
	if c.fatal != nil || c.remaining == 0 {
		return
	}
	c.fatal = err
	close(c.finished)
}

// sweepExpired reclaims every lease whose TTL ran out unrenewed: the
// contiguous runs of not-yet-done shards inside its span go back in the
// queue for other workers — this is the crash tolerance and the work
// stealing in one move. Expired leases are dropped in grant order, not
// map-iteration order: the drop order decides where each lease's undone
// remainder lands in the pending queue, and serving requeued spans
// oldest-grant-first keeps the schedule reproducible run to run
// (speclint's nondeterminism analyzer flags the unsorted map-range
// form). Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) sweepExpired(now time.Time) {
	var expired []*leaseState
	for _, l := range c.leases {
		if !now.Before(l.expires) {
			expired = append(expired, l)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].seq < expired[j].seq })
	for _, l := range expired {
		c.dropLease(l)
	}
}

// dropLease removes one lease, requeues its undone remainder and clears
// the worker's byWorker entry when it names this lease. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) dropLease(l *leaseState) {
	delete(c.leases, l.id)
	c.requeueUndone(l.span)
	if l.worker != "" && c.byWorker[l.worker] == l.id {
		delete(c.byWorker, l.worker)
	}
}

// requeueUndone pushes the contiguous not-done sub-spans of sp back onto
// the pending queue. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) requeueUndone(sp experiment.Span) {
	start := -1
	for i := sp.Start; i <= sp.End; i++ {
		if i < sp.End && !c.done[i] {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			c.pending = append(c.pending, experiment.Span{Start: start, End: i})
			start = -1
		}
	}
}

// grantSize is the shards-per-grant rule: the pinned chunk when one is
// set, otherwise guided self-scheduling — ceil(queued/16) of the shards
// still in the pending queue. Grants shrink as the queue drains, so the
// last chunks are one shard each and a straggler holding one costs the
// run little, with no estimate of shard cost or worker speed.
func grantSize(chunk, queued int) int {
	if chunk > 0 {
		return chunk
	}
	return (queued + guidedDivisor - 1) / guidedDivisor
}

// queued counts the shards in the pending queue. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) queued() int {
	u := 0
	for _, sp := range c.pending {
		u += sp.End - sp.Start
	}
	return u
}

// newLease mints and registers one grant. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) newLease(worker string, sp experiment.Span, now time.Time) *leaseState {
	c.nextID++
	l := &leaseState{
		id:  fmt.Sprintf("L%d", c.nextID),
		seq: c.nextID, worker: worker, span: sp,
		expires: now.Add(c.lease),
	}
	c.leases[l.id] = l
	c.issued[l.id] = sp
	if worker != "" {
		c.byWorker[worker] = l.id
	}
	return l
}

// Stats snapshots the coordinator's scheduling state: run progress, the
// live lease and queue shape, and the grants issued so far.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Run: c.run, Shards: c.n,
		Done: c.n - c.remaining, Remaining: c.remaining,
		PendingSpans: len(c.pending), Leases: len(c.leases),
		Grants: c.nextID,
	}
}

// Handler returns the coordinator's HTTP interface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/job", c.handleJob)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/renew", c.handleRenew)
	mux.HandleFunc("/results", c.handleResults)
	mux.HandleFunc("/stats", c.handleStats)
	return mux
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(mustJSON(v))
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Job{
		Experiment: c.spec.Name, Params: c.params, Run: c.run,
		Shards: c.n, LeaseMillis: c.lease.Milliseconds(),
	})
}

// pollInterval suggests how often a waiting worker should re-poll:
// fast enough to pick up an expired lease promptly, slow enough not to
// hammer the coordinator.
func (c *Coordinator) pollInterval() time.Duration {
	p := c.lease / 10
	if p < 25*time.Millisecond {
		p = 25 * time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// decodeControl decodes a /lease or /renew body of at most
// maxControlBody bytes into v, returning the status to refuse it with:
// 413 when the body is over the limit, 400 when it is not valid JSON.
func decodeControl(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if status, err := decodeControl(w, r, &req); err != nil {
		http.Error(w, "bad lease request: "+err.Error(), status)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Run != c.run {
		http.Error(w, fmt.Sprintf("lease request names run %q; this coordinator serves run %q", req.Run, c.run), http.StatusGone)
		return
	}
	now := c.now()
	c.sweepExpired(now)
	if c.fatal != nil || c.remaining == 0 {
		writeJSON(w, http.StatusOK, Lease{Done: true, Run: c.run})
		return
	}
	if req.Worker != "" {
		if id, ok := c.byWorker[req.Worker]; ok {
			if l := c.leases[id]; l != nil {
				if !l.started {
					// Idempotent re-poll: a worker holding an unexpired
					// grant it never started (no results arrived) gets the
					// same grant back — the retry after a lease response
					// lost in transit, not a request for more.
					l.expires = now.Add(c.lease)
					writeJSON(w, http.StatusOK, Lease{
						ID: l.id, Run: c.run, Start: l.span.Start, End: l.span.End,
						ExpiresMillis: c.lease.Milliseconds(),
					})
					return
				}
				// Abandoned-grant release: a worker never polls for a new
				// lease while still serving a chunk, so a re-poll from the
				// holder of a started, unexpired grant means it abandoned
				// that chunk (the transport-error fallback) and moved on.
				// The coordinator knows — releasing the undone remainder
				// now, before granting fresh work, beats leaving those
				// shards unserveable until the TTL cliff.
				c.dropLease(l)
			}
		}
	}
	if len(c.pending) == 0 {
		writeJSON(w, http.StatusOK, Lease{Wait: true, Run: c.run, PollMillis: c.pollInterval().Milliseconds()})
		return
	}
	// Carve the grant off the head span; the remainder goes back to the
	// front so the queue stays FIFO.
	k := grantSize(c.chunk, c.queued())
	sp := c.pending[0]
	c.pending = c.pending[1:]
	if sp.End-sp.Start > k {
		c.pending = append([]experiment.Span{{Start: sp.Start + k, End: sp.End}}, c.pending...)
		sp.End = sp.Start + k
	}
	l := c.newLease(req.Worker, sp, now)
	writeJSON(w, http.StatusOK, Lease{
		ID: l.id, Run: c.run, Start: sp.Start, End: sp.End,
		ExpiresMillis: c.lease.Milliseconds(),
	})
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RenewRequest
	if status, err := decodeControl(w, r, &req); err != nil {
		http.Error(w, "bad renew request: "+err.Error(), status)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Run != c.run {
		http.Error(w, fmt.Sprintf("renewal names run %q; this coordinator serves run %q", req.Run, c.run), http.StatusGone)
		return
	}
	now := c.now()
	c.sweepExpired(now)
	l, ok := c.leases[req.ID]
	if !ok {
		// Expired (possibly re-issued already): the worker must abandon
		// the chunk. Results it already streamed remain accepted.
		http.Error(w, "lease expired or unknown", http.StatusGone)
		return
	}
	l.expires = now.Add(c.lease)
	writeJSON(w, http.StatusOK, Renewal{ExpiresMillis: c.lease.Milliseconds()})
}

// handleResults ingests a stream of ResultLine documents, one per line.
// Lines are validated hard — the coordinator trusts no worker: malformed
// JSON, wrong run tokens, never-issued lease ids, out-of-range or
// out-of-span shard indexes and payloads that don't decode as the spec's
// shard type are rejected with a 4xx without corrupting shard state (the
// shard stays pending or leased and will be served again). A duplicate
// of an already-done shard must be byte-identical to the accepted
// result: equal bytes are acknowledged idempotently, unequal bytes are a
// determinism-contract violation that fails the whole run (409). A
// body over maxResultBody is refused with 413; the lines before the cap
// stay accepted.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxResultBody))
	// A nil buffer starts at bufio's 4 KiB and grows only for long lines.
	sc.Buffer(nil, maxResultBody)
	accepted := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if status, err := c.acceptResult(line); err != nil {
			writeJSON(w, status, ResultAck{Accepted: accepted, Error: err.Error()})
			return
		}
		accepted++
	}
	if err := sc.Err(); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, ResultAck{Accepted: accepted, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ResultAck{Accepted: accepted})
}

// acceptResult validates and applies one result line, returning the HTTP
// status to reject it with when invalid.
func (c *Coordinator) acceptResult(line []byte) (int, error) {
	var rl ResultLine
	if err := json.Unmarshal(line, &rl); err != nil {
		return http.StatusBadRequest, fmt.Errorf("malformed result line: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rl.Run != c.run {
		return http.StatusGone, fmt.Errorf("result names run %q; this coordinator serves run %q", rl.Run, c.run)
	}
	span, issued := c.issued[rl.Lease]
	if !issued {
		return http.StatusGone, fmt.Errorf("result names lease %q this coordinator never issued", rl.Lease)
	}
	if rl.Shard < 0 || rl.Shard >= c.n {
		return http.StatusBadRequest, fmt.Errorf("shard %d out of range [0,%d)", rl.Shard, c.n)
	}
	if rl.Shard < span.Start || rl.Shard >= span.End {
		return http.StatusBadRequest, fmt.Errorf("shard %d outside lease %s's span [%d,%d)", rl.Shard, rl.Lease, span.Start, span.End)
	}
	// Only lines the coordinator actually accepts mark the grant started:
	// rejected garbage must not defeat the unstarted re-poll idempotency.
	l := c.leases[rl.Lease]
	start := func() {
		if l != nil {
			l.started = true
		}
	}
	if c.done[rl.Shard] {
		switch {
		case rl.Err != "":
			// A straggler from a re-issued lease reporting a failure for
			// a shard someone else already completed: moot by then — the
			// accepted bytes satisfied the determinism contract, so the
			// stale error must not poison the run.
			return http.StatusOK, nil
		case bytes.Equal(c.raw[rl.Shard], rl.Value):
			// Idempotent duplicate from a re-issued lease.
			start()
			return http.StatusOK, nil
		default:
			err := fmt.Errorf("remote: shard %d: duplicate result differs from accepted bytes — determinism contract violated", rl.Shard)
			c.fail(err)
			return http.StatusConflict, err
		}
	}
	if rl.Err != "" {
		// A shard that genuinely fails would fail identically anywhere —
		// re-running it elsewhere cannot help, so the run fails.
		c.fail(fmt.Errorf("remote: shard %d: %s", rl.Shard, rl.Err))
		return http.StatusOK, nil
	}
	if len(rl.Value) == 0 {
		return http.StatusBadRequest, fmt.Errorf("shard %d: empty result value", rl.Shard)
	}
	v, err := experiment.DecodeShard(c.spec, rl.Value)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("shard %d: corrupt payload: %w", rl.Shard, err)
	}
	if c.journal != nil {
		if err := c.journal.append(rl.ShardLine); err != nil {
			// A journal that cannot record what it accepted is a broken
			// restart contract; failing loudly beats resuming wrong.
			c.fail(err)
			return http.StatusInternalServerError, err
		}
	}
	start()
	c.values[rl.Shard] = v
	c.raw[rl.Shard] = append([]byte(nil), rl.Value...)
	c.done[rl.Shard] = true
	c.remaining--
	if c.onDone != nil {
		c.onDone()
	}
	if c.remaining == 0 && c.fatal == nil {
		close(c.finished)
	}
	return http.StatusOK, nil
}
