package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"specinterference/internal/results"
)

// TestMain lets this test binary serve as a subprocess-backend shard
// worker when the Subprocess tests re-exec it.
func TestMain(m *testing.M) {
	RunWorkerIfRequested()
	os.Exit(m.Run())
}

// failSpec is a test-only spec whose shard `failAt` errors; it must be
// registered from init so re-exec'd worker processes know it too.
const failAt = 3

func init() {
	Register(&Spec{
		Name: "test-fail",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			if i == failAt {
				return nil, fmt.Errorf("shard %d exploded", i)
			}
			return float64(i), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("aggregate must not run after a shard failure")
		},
	})
}

func TestRegistryNames(t *testing.T) {
	want := []string{"concordance", "figure11", "figure12", "figure7", "table1", "test-fail", "test-stderr"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if _, err := Lookup("figure7"); err != nil {
		t.Errorf("Lookup(figure7): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(&Spec{Name: "figure7"})
}

// TestPlanCounts pins the shard grids to the serial loops' trial counts.
func TestPlanCounts(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		p    results.Params
		want int
	}{
		{"figure7", results.Params{Trials: 5, Jitter: 1, Seed: 1}, 10},
		{"table1", results.Params{Schemes: []string{"unsafe", "dom"}}, 14},
		// 2 pocs × 3 bits × (1+3) reps.
		{"figure11", results.Params{PoCs: []string{"dcache", "icache"}, Bits: 3, Reps: []int{1, 3}, Seed: 1}, 24},
		// 6 workloads × (1 baseline + 2 schemes).
		{"figure12", results.Params{Iters: 10, Schemes: []string{"fence-spectre", "fence-futuristic"}}, 18},
	} {
		spec, err := Lookup(tc.exp)
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec.Plan(tc.p)
		if err != nil {
			t.Errorf("%s: Plan: %v", tc.exp, err)
			continue
		}
		if n != tc.want {
			t.Errorf("%s: Plan = %d shards, want %d", tc.exp, n, tc.want)
		}
	}
}

// TestPlanValidation: bad parameters must fail planning, not execution.
func TestPlanValidation(t *testing.T) {
	for _, tc := range []struct {
		exp string
		p   results.Params
	}{
		{"figure7", results.Params{Trials: 0}},
		{"table1", results.Params{}},
		{"figure11", results.Params{PoCs: []string{"dcache"}, Bits: 0, Reps: []int{1}}},
		{"figure11", results.Params{PoCs: []string{"dcache"}, Bits: 2, Reps: []int{0}}},
		{"figure11", results.Params{PoCs: []string{"l4cache"}, Bits: 2, Reps: []int{1}}},
		{"figure12", results.Params{Iters: 0, Schemes: []string{"fence-spectre"}}},
		{"figure12", results.Params{Iters: 5}},
	} {
		spec, err := Lookup(tc.exp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Plan(tc.p); err == nil {
			t.Errorf("%s: Plan(%+v) succeeded, want error", tc.exp, tc.p)
		}
	}
}

// TestScaleHooks: -scale multiplies the trial-style axis and leaves the
// rest of the params alone.
func TestScaleHooks(t *testing.T) {
	f7, _ := Lookup("figure7")
	if p := f7.Scale(results.Params{Trials: 4, Jitter: 9, Seed: 2}, 3); p.Trials != 12 || p.Jitter != 9 || p.Seed != 2 {
		t.Errorf("figure7 scale: %+v", p)
	}
	f11, _ := Lookup("figure11")
	if p := f11.Scale(results.Params{Bits: 2, Reps: []int{1, 3}}, 4); p.Bits != 8 || len(p.Reps) != 2 {
		t.Errorf("figure11 scale: %+v", p)
	}
	f12, _ := Lookup("figure12")
	if p := f12.Scale(results.Params{Iters: 10}, 2); p.Iters != 20 {
		t.Errorf("figure12 scale: %+v", p)
	}
	t1, _ := Lookup("table1")
	if t1.Scale != nil {
		t.Error("table1 must not declare a scale axis")
	}
}

// TestRunProgressCallback: the done hook fires once per shard.
func TestRunProgressCallback(t *testing.T) {
	spec, _ := Lookup("figure7")
	p := results.Params{Trials: 3, Jitter: 2, Seed: 1}
	var done atomic.Int64
	if _, err := Run(context.Background(), spec, p, InProcess{Workers: 2}, func() { done.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 6 {
		t.Errorf("done fired %d times, want 6", done.Load())
	}
}

// TestShardErrorInProcess: a failing shard aborts the run with its error
// and aggregation never runs.
func TestShardErrorInProcess(t *testing.T) {
	spec, _ := Lookup("test-fail")
	_, err := Run(context.Background(), spec, results.Params{Trials: 8}, InProcess{Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("err = %v, want the shard failure", err)
	}
}

// TestShardErrorSubprocess: the worker streams the failure back and the
// parent surfaces it.
func TestShardErrorSubprocess(t *testing.T) {
	spec, _ := Lookup("test-fail")
	_, err := Run(context.Background(), spec, results.Params{Trials: 8}, Subprocess{Procs: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("err = %v, want the shard failure", err)
	}
}

// TestNewBackend covers NewBackendOptions' name resolution, the unknown
// name included.
func TestNewBackend(t *testing.T) {
	for name, want := range map[string]string{"": "inprocess", "inprocess": "inprocess", "subprocess": "subprocess"} {
		b, err := NewBackendOptions(name, BackendOptions{})
		if err != nil || b.Name() != want {
			t.Errorf("NewBackendOptions(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := NewBackendOptions("carrier-pigeon", BackendOptions{}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestShardJSONRoundTrip pins the subprocess wire contract: every spec's
// shard value must survive Marshal → Unmarshal-into-NewShard losslessly,
// which is what makes the two backends bit-identical.
func TestShardJSONRoundTrip(t *testing.T) {
	for _, exp := range []string{"figure7", "table1", "figure11", "figure12"} {
		spec, err := Lookup(exp)
		if err != nil {
			t.Fatal(err)
		}
		p := smallParams(t, exp)
		state, err := spec.PrepareState(p)
		if err != nil {
			t.Fatal(err)
		}
		v, err := spec.Run(context.Background(), state, p, 0)
		if err != nil {
			t.Fatalf("%s: Run: %v", exp, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", exp, err)
		}
		back, err := DecodeShard(spec, raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", exp, err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Errorf("%s: shard value changed across the wire:\n  sent %#v\n  got  %#v", exp, v, back)
		}
	}
}

// TestInProcessWorkerInvariance checks every paper spec's engine run
// against its decomposition — Run on every shard in index order, then
// Aggregate — at in-process worker counts 1 and 4. The serial reference
// loops in internal/core, internal/channel and internal/workload are
// checked against the same decomposition, so the engine reproduces them
// at any worker count.
func TestInProcessWorkerInvariance(t *testing.T) {
	for _, exp := range results.Experiments() {
		spec, err := Lookup(exp)
		if err != nil {
			t.Fatal(err)
		}
		p := smallParams(t, exp)
		want := decompose(t, spec, p)
		for _, workers := range []int{1, 4} {
			got, err := Run(context.Background(), spec, p, InProcess{Workers: workers}, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", exp, workers, err)
			}
			gotJSON, err := got.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(want) {
				t.Errorf("%s workers=%d: engine record diverged from the shard decomposition:\n  engine %s\n  shards %s",
					exp, workers, gotJSON, want)
			}
		}
	}
}

// decompose runs a spec without a backend: PrepareState, Run on shards
// [0, Plan) in index order, Aggregate. It returns the canonical record.
func decompose(t *testing.T, spec *Spec, p results.Params) []byte {
	t.Helper()
	n, err := spec.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	state, err := spec.PrepareState(p)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]any, n)
	for i := range shards {
		if shards[i], err = spec.Run(context.Background(), state, p, i); err != nil {
			t.Fatalf("%s shard %d: %v", spec.Name, i, err)
		}
	}
	rec, err := spec.Aggregate(p, shards)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := rec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return canonical
}

// smallParams returns tiny but valid params for an experiment.
func smallParams(t *testing.T, exp string) results.Params {
	t.Helper()
	switch exp {
	case "figure7":
		return results.Params{Trials: 2, Jitter: 3, Seed: 1}
	case "table1":
		return results.Params{Schemes: []string{"unsafe"}}
	case "figure11":
		return results.Params{PoCs: []string{"dcache"}, Bits: 2, Reps: []int{1}, Seed: 1}
	case "figure12":
		return results.Params{Iters: 30, Schemes: []string{"fence-spectre"}}
	case "concordance":
		return results.Params{Schemes: []string{"unsafe", "dom"}}
	default:
		t.Fatalf("unknown experiment %q", exp)
		return results.Params{}
	}
}
