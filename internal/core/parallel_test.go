package core

import (
	"context"
	"testing"

	"specinterference/internal/runner"
)

// serialFigure7Latencies is the pre-runner serial Figure 7 loop, kept as
// the golden reference for the seed-derivation contract: trial i of arm
// `secret` always runs with seed seedBase + 2*i + secret.
func serialFigure7Latencies(t *testing.T, trials, jitter int, seedBase uint64) (baseline, interference []float64) {
	t.Helper()
	for secret := 0; secret <= 1; secret++ {
		for i := 0; i < trials; i++ {
			lat, err := measureTargetLatency(NewTrialState(), secret, jitter, seedBase+uint64(2*i+secret))
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			if secret == 0 {
				baseline = append(baseline, lat)
			} else {
				interference = append(interference, lat)
			}
		}
	}
	return baseline, interference
}

// figure7ByShards is the Figure 7 experiment spec's decomposition:
// Figure7Shard over the shard grid on a worker pool, collected in index
// order, then BuildFigure7Result — the aggregator the spec calls.
func figure7ByShards(t *testing.T, trials, jitter int, seedBase uint64, workers int) *Figure7Result {
	t.Helper()
	n, err := Figure7Shards(trials)
	if err != nil {
		t.Fatal(err)
	}
	lats, err := runner.Map(context.Background(), n, workers, func(_ context.Context, j int) (float64, error) {
		return Figure7Shard(trials, jitter, seedBase, j)
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return BuildFigure7Result(lats[:trials:trials], lats[trials:])
}

// TestFigure7ParallelMatchesSerial asserts the sharded Figure 7
// decomposition is bit-identical to the serial loop at worker counts 1
// and 4; the experiment package checks the engine against the same
// decomposition.
func TestFigure7ParallelMatchesSerial(t *testing.T) {
	const trials, jitter, seed = 4, 25, 7
	wantBase, wantInt := serialFigure7Latencies(t, trials, jitter, seed)
	for _, workers := range []int{1, 4} {
		res := figure7ByShards(t, trials, jitter, seed, workers)
		if len(res.Baseline) != trials || len(res.Interference) != trials {
			t.Fatalf("workers=%d: got %d/%d latencies, want %d per arm",
				workers, len(res.Baseline), len(res.Interference), trials)
		}
		for i := range wantBase {
			if res.Baseline[i] != wantBase[i] {
				t.Errorf("workers=%d: baseline[%d] = %v, serial = %v", workers, i, res.Baseline[i], wantBase[i])
			}
			if res.Interference[i] != wantInt[i] {
				t.Errorf("workers=%d: interference[%d] = %v, serial = %v", workers, i, res.Interference[i], wantInt[i])
			}
		}
	}
}

// matrixByShards is the Table 1 experiment spec's decomposition:
// MatrixShard over the cell grid on a worker pool, in index order.
func matrixByShards(t *testing.T, names []string, workers int) []MatrixCell {
	t.Helper()
	cells, err := runner.Map(context.Background(), MatrixShards(names), workers, func(_ context.Context, j int) (MatrixCell, error) {
		return MatrixShard(names, j)
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return cells
}

// TestMatrixParallelMatchesSerial asserts the sharded matrix classifies
// every cell identically (signatures included) to the serial loop, in the
// same order, at worker counts 1 and 4.
func TestMatrixParallelMatchesSerial(t *testing.T) {
	names := []string{"unsafe", "dom", "invisispec-spectre"}
	var want []MatrixCell
	for _, combo := range Combos() {
		g := combo[0].(Gadget)
		ord := combo[1].(Ordering)
		for _, name := range names {
			cell, err := Classify(name, g, ord)
			if err != nil {
				t.Fatalf("serial reference %s/%s/%s: %v", name, g, ord, err)
			}
			want = append(want, cell)
		}
	}
	for _, workers := range []int{1, 4} {
		got := matrixByShards(t, names, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: cell %d = %+v, serial = %+v", workers, i, got[i], want[i])
			}
		}
	}
}
