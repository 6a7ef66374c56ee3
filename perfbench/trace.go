package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one regeneration share
// regen; parent is the id of the span that made the call (-1 for a root).
type span struct {
	id, parent, regen int
	name, layer       string
	start, end        int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: shard spans end on worker goroutines and HTTP handler
// spans on the server's.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(regen, parent int, name, layer string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, regen: regen, name: name, layer: layer, start: start, end: end})
	return id
}

// begin opens a span whose end is filled in by finish; its id is valid
// as a parent at once.
func (t *tracer) begin(regen, parent int, name, layer string) int {
	return t.add(regen, parent, name, layer, t.now(), -1)
}

func (t *tracer) finish(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// regenSpans returns the spans of one regeneration.
func (t *tracer) regenSpans(regen int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.regen == regen {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes splits the wall time of one regeneration's spans among them.
// At every instant the time goes to the innermost spans open then: a span
// gets the part of its interval its children do not cover, and when
// several sibling leaves run at once (two shard workers, two HTTP
// handlers) they share the instant equally. The self times therefore sum
// to the root span's duration exactly, which is what lets the report set
// the layers' self times beside the traced wall time.
func selfTimes(spans []span) map[int]float64 {
	type event struct {
		t     int64
		id    int
		start bool
	}
	idx := make(map[int]int, len(spans))
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		idx[s.id] = i
		if s.end > s.start { // an empty span holds no time
			evs = append(evs, event{s.start, s.id, true}, event{s.end, s.id, false})
		}
	}
	// At a tie, closes go first, children before parents; then opens,
	// parents before children. A parent is begun before its children, so
	// it always has the lower id.
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		switch {
		case a.t != b.t:
			return a.t < b.t
		case a.start != b.start:
			return !a.start
		case a.start:
			return a.id < b.id
		default:
			return a.id > b.id
		}
	})
	open := make(map[int]bool, len(spans))
	children := make(map[int]int, len(spans)) // open children per open span
	var leaves []int
	removeLeaf := func(id int) {
		for i, l := range leaves {
			if l == id {
				leaves = append(leaves[:i], leaves[i+1:]...)
				return
			}
		}
	}
	self := make(map[int]float64, len(spans))
	for k, e := range evs {
		parent := spans[idx[e.id]].parent
		parentOpen := parent >= 0 && open[parent]
		if e.start {
			open[e.id] = true
			leaves = append(leaves, e.id)
			if parentOpen {
				if children[parent]++; children[parent] == 1 {
					removeLeaf(parent)
				}
			}
		} else {
			delete(open, e.id)
			removeLeaf(e.id)
			if parentOpen {
				if children[parent]--; children[parent] == 0 {
					leaves = append(leaves, parent)
				}
			}
		}
		if k+1 < len(evs) && len(leaves) > 0 {
			share := float64(evs[k+1].t-e.t) / float64(len(leaves)) / 1e9
			for _, l := range leaves {
				self[l] += share
			}
		}
	}
	return self
}

// layerSelf sums one regeneration's self times by layer, in seconds, and
// returns the root span's duration beside them.
func layerSelf(spans []span) (byLayer map[string]float64, wall float64) {
	self := selfTimes(spans)
	byLayer = map[string]float64{}
	for _, s := range spans {
		byLayer[s.layer] += self[s.id]
		if s.parent < 0 {
			wall += float64(s.end-s.start) / 1e9
		}
	}
	return byLayer, wall
}

// writeSpans writes every span as one JSON line to spans/<workload>.jsonl
// beside the benchmark binary, replacing the previous traced run's file.
func (t *tracer) writeSpans(workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(exe), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Regen   int    `json:"regen"`
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			Layer   string `json:"layer"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.regen, s.id, s.parent, s.name, s.layer, s.start, s.end}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
