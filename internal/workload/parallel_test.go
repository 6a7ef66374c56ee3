package workload

import (
	"context"
	"math"
	"reflect"
	"testing"

	"specinterference/internal/runner"
)

// serialEvaluate is the pre-runner serial Figure 12 loop, kept as the
// golden reference: baseline then schemes per workload, accumulating the
// mean/geomean sums in that order (float addition order matters for
// bit-identity).
func serialEvaluate(t *testing.T, cfg EvalConfig) *EvalResult {
	t.Helper()
	res := &EvalResult{
		Geomean: map[string]float64{},
		Mean:    map[string]float64{},
	}
	logSum := map[string]float64{}
	sum := map[string]float64{}
	for _, w := range All() {
		base, ipc, err := runOnce(w, "unsafe", cfg)
		if err != nil {
			t.Fatalf("serial reference: %v", err)
		}
		row := EvalRow{
			Workload:       w.Name,
			BaselineCycles: base,
			BaselineIPC:    ipc,
			Slowdown:       map[string]float64{},
		}
		for _, s := range cfg.Schemes {
			cycles, _, err := runOnce(w, s, cfg)
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			sd := float64(cycles) / float64(base)
			row.Slowdown[s] = sd
			logSum[s] += math.Log(sd)
			sum[s] += sd
		}
		res.Rows = append(res.Rows, row)
	}
	n := float64(len(res.Rows))
	for _, s := range cfg.Schemes {
		res.Geomean[s] = math.Exp(logSum[s] / n)
		res.Mean[s] = sum[s] / n
	}
	return res
}

// evaluateByShards is the Figure 12 experiment spec's decomposition:
// EvalShard over the cell grid on a worker pool, collected in index
// order, then AggregateCells — the aggregator the spec calls.
func evaluateByShards(t *testing.T, cfg EvalConfig, workers int) *EvalResult {
	t.Helper()
	cfg = cfg.Normalize()
	cells, err := runner.Map(context.Background(), EvalShards(cfg), workers, func(_ context.Context, j int) (Cell, error) {
		return EvalShard(cfg, j)
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return AggregateCells(cfg, cells)
}

// TestEvaluateParallelMatchesSerial asserts the sharded Figure 12 sweep is
// bit-identical (rows, means and geomeans) to the serial loop at worker
// counts 1 and 4.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	cfg := EvalConfig{Iters: 50, MaxCycles: 5_000_000, Schemes: []string{"fence-spectre"}, Cores: 1}
	want := serialEvaluate(t, cfg)
	for _, workers := range []int{1, 4} {
		if got := evaluateByShards(t, cfg, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: shards = %+v, serial = %+v", workers, got, want)
		}
	}
}
