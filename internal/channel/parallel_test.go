package channel

import (
	"context"
	"testing"

	"specinterference/internal/cache"
	"specinterference/internal/core"
	"specinterference/internal/runner"
)

// serialMeasure is the pre-runner serial measurement loop, kept as the
// golden reference for the seed contract: trial (bit, rep) runs with seed
// seedBase*1_000_003 + 17 + bit*reps + rep + 1.
func serialMeasure(t *testing.T, poc *core.PoC, reps, bits int, seedBase uint64) Result {
	t.Helper()
	rng := cache.NewRand(seedBase | 1)
	res := Result{Reps: reps, Bits: bits}
	seed := seedBase*1_000_003 + 17
	for b := 0; b < bits; b++ {
		bit := rng.Intn(2)
		votes := [2]int{}
		for rep := 0; rep < reps; rep++ {
			seed++
			out, err := poc.RunBit(bit, seed)
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			res.TotalCycles += out.Cycles
			if out.OK {
				votes[out.Decoded]++
			} else {
				res.Dropped++
			}
		}
		decoded := 0
		if votes[1] > votes[0] {
			decoded = 1
		}
		if decoded != bit {
			res.Errors++
		}
	}
	res.ErrorRate = float64(res.Errors) / float64(res.Bits)
	res.CyclesPerBit = float64(res.TotalCycles) / float64(res.Bits)
	res.Bps = NominalGHz * 1e9 / res.CyclesPerBit
	return res
}

// measureByShards is the Figure 11 experiment spec's decomposition of
// one curve point: DrawBits, one RunBit per flattened trial at TrialSeed
// on a worker pool, collected in index order, then DecodePoint — the
// aggregator the spec calls.
func measureByShards(t *testing.T, poc *core.PoC, reps, bits int, seedBase uint64, workers int) Result {
	t.Helper()
	sent := DrawBits(seedBase, bits)
	outs, err := runner.Map(context.Background(), bits*reps, workers, func(_ context.Context, j int) (core.BitOutcome, error) {
		return poc.RunBit(sent[j/reps], TrialSeed(seedBase, j))
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return DecodePoint(reps, sent, outs)
}

// curveByShards measures one point per repetition count, point i at
// PointSeedBase(seedBase, i), as the Figure 11 spec lays out a curve.
func curveByShards(t *testing.T, poc *core.PoC, repsList []int, bits int, seedBase uint64, workers int) []Result {
	t.Helper()
	var out []Result
	for i, reps := range repsList {
		out = append(out, measureByShards(t, poc, reps, bits, PointSeedBase(seedBase, i), workers))
	}
	return out
}

// TestMeasureParallelMatchesSerial asserts a noisy D-Cache measurement's
// shard decomposition is bit-identical to the serial loop at worker
// counts 1 and 4 (every Result field, cycle totals included).
func TestMeasureParallelMatchesSerial(t *testing.T) {
	poc := DCacheFigure11()
	want := serialMeasure(t, poc, 3, 4, 11)
	for _, workers := range []int{1, 4} {
		if got := measureByShards(t, poc, 3, 4, 11, workers); got != want {
			t.Errorf("workers=%d: shards = %+v, serial = %+v", workers, got, want)
		}
	}
}

// TestCurveParallelMatchesSerial asserts whole curves agree with the
// serial loop at every point and worker count (each point derives its
// seed base from its position only).
func TestCurveParallelMatchesSerial(t *testing.T) {
	poc := ICacheFigure11()
	reps := []int{1, 3}
	var want []Result
	for i, r := range reps {
		want = append(want, serialMeasure(t, poc, r, 3, PointSeedBase(5, i)))
	}
	for _, workers := range []int{1, 4} {
		got := curveByShards(t, poc, reps, 3, 5, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: point %d = %+v, serial = %+v", workers, i, got[i], want[i])
			}
		}
	}
}
