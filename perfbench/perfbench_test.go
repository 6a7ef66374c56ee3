package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
)

// TestMain lets the backends re-exec the test binary as a worker.
func TestMain(m *testing.M) {
	experiment.RunWorkerIfRequested()
	os.Exit(m.Run())
}

// tiny returns a copy of the named workload at small parameters, with its
// expected hash taken from a serial run.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.seeded = false
	switch name {
	case "table1-inproc", "concordance-inproc":
		small.params = func(uint64) results.Params { return results.Params{Schemes: []string{"unsafe", "dom"}} }
	case "channel-remote":
		small.params = func(seed uint64) results.Params {
			return results.Params{PoCs: []string{"dcache"}, Bits: 2, Reps: []int{1, 3}, Seed: seed}
		}
	case "defense-inproc":
		small.params = func(uint64) results.Params { return results.Params{Iters: 20, Schemes: []string{"fence-spectre"}} }
	}
	spec, err := experiment.Lookup(w.experiment)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := serialRun(spec, small.params(1))
	if err != nil {
		t.Fatal(err)
	}
	small.expectedHash = rec.Hash
	return &small
}

func tinyOptions(w *workload) options {
	return options{workload: w, seed: 1, duration: time.Millisecond, minRegens: 1, log: io.Discard}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// units maps metric names to units.
func units[T any](list []T, nameUnit func(T) (string, string)) map[string]string {
	out := map[string]string{}
	for _, x := range list {
		n, u := nameUnit(x)
		out[n] = u
	}
	return out
}

func TestBenchmarkFileMatchesDocs(t *testing.T) {
	f := readBenchmarkFile(t)
	doc := func(d metricDoc) (string, string) { return d.name, d.unit }
	file := func(x struct{ Name, Unit string }) (string, string) { return x.Name, x.Unit }
	if got, want := units(f.EndToEnd, file), units(endToEnd, doc); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v, metrics.go documents %v", got, want)
	}
	if got, want := units(f.PerLayer, file), units(perLayer, doc); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v, metrics.go documents %v", got, want)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads = %v, want %s at %d", names, w.name, i)
		}
	}
}

// TestSmoke runs every workload untraced and traced at tiny parameters and
// checks that each prints exactly its documented metrics with their units,
// through the same JSON line the benchmark ends with.
func TestSmoke(t *testing.T) {
	doc := func(d metricDoc) (string, string) { return d.name, d.unit }
	for _, w := range workloads {
		w := tiny(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			for _, c := range []struct {
				run  func(options) (result, error)
				want []metricDoc
			}{{measure, endToEnd}, {traced, perLayer}} {
				res, err := c.run(tinyOptions(w))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back struct{ Metrics map[string]metric }
				if err := json.Unmarshal(line, &back); err != nil {
					t.Fatal(err)
				}
				got := units(mapEntries(back.Metrics), func(e entry) (string, string) { return e.name, e.m.Unit })
				if want := units(c.want, doc); !reflect.DeepEqual(got, want) {
					t.Errorf("metrics = %v, want %v", got, want)
				}
			}
		})
	}
}

type entry struct {
	name string
	m    metric
}

func mapEntries(m map[string]metric) []entry {
	var out []entry
	for k, v := range m {
		out = append(out, entry{k, v})
	}
	return out
}

// TestTamperedHashFails checks that a record that does not carry the
// expected hash is counted as a failure and does not abort the run.
func TestTamperedHashFails(t *testing.T) {
	w := tiny(t, "table1-inproc")
	w.expectedHash = "0000000000000000000000000000000000000000000000000000000000000000"
	res, err := measure(tinyOptions(w))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every regeneration failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestWorkerReexec regenerates on both process backends, whose workers
// are this test binary re-exec'd, and expects the serial hash.
func TestWorkerReexec(t *testing.T) {
	w := tiny(t, "channel-remote")
	spec, err := experiment.Lookup(w.experiment)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []experiment.Backend{
		experiment.Subprocess{Procs: procs},
		remote.Remote{Procs: procs, Stderr: io.Discard},
	} {
		if s := regenerate(spec, w.params(1), b, w.expectedHash, w.check); s.err != nil {
			t.Errorf("%s: %v", b.Name(), s.err)
		}
	}
}

// TestSelfTimes checks the split of wall time among nested and
// concurrent spans.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, layer: "root", start: 0, end: 100},
		{id: 1, parent: 0, layer: "a", start: 10, end: 50},
		{id: 2, parent: 1, layer: "b", start: 20, end: 40},
		{id: 3, parent: 1, layer: "b", start: 30, end: 40}, // concurrent with 2
		{id: 4, parent: 0, layer: "c", start: 60, end: 60}, // empty
		{id: 5, parent: 0, layer: "c", start: 70, end: 100},
	}
	self := selfTimes(spans)
	want := map[int]float64{0: 30, 1: 20, 2: 15, 3: 5, 5: 30}
	for id, ns := range want {
		if got := self[id] * 1e9; got < ns-1e-6 || got > ns+1e-6 {
			t.Errorf("self[%d] = %g ns, want %g", id, got, ns)
		}
	}
	byLayer, wall := layerSelf(spans)
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	if wall != 100e-9 || total < wall-1e-15 || total > wall+1e-15 {
		t.Errorf("layers sum to %g of wall %g", total, wall)
	}
}

// TestRunOutput checks the command line: a bad workload is an error with
// no result line.
func TestRunOutput(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}
