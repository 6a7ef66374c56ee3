package channel

import (
	"testing"

	"specinterference/internal/core"
)

func TestNoiselessChannelIsPerfect(t *testing.T) {
	poc := core.NewDCachePoC("invisispec-spectre", 0)
	r := measureByShards(t, poc, 1, 8, 5, 0)
	if r.ErrorRate != 0 {
		t.Errorf("noiseless channel error = %.2f, want 0", r.ErrorRate)
	}
	if r.Bps <= 0 || r.CyclesPerBit <= 0 {
		t.Error("rate accounting broken")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	a := measureByShards(t, DCacheFigure11(), 3, 6, 11, 0)
	b := measureByShards(t, DCacheFigure11(), 3, 6, 11, 0)
	if a.Errors != b.Errors || a.TotalCycles != b.TotalCycles {
		t.Error("equal seeds must reproduce the measurement")
	}
}

func TestCurveShapeICache(t *testing.T) {
	// Figure 11(b)'s qualitative shape: more repetitions per bit cost
	// cycles (lower rate) and reduce error.
	results := curveByShards(t, ICacheFigure11(), []int{1, 9}, 16, 21, 0)
	if results[1].CyclesPerBit <= results[0].CyclesPerBit {
		t.Error("more reps must lower the bit rate")
	}
	if results[1].ErrorRate > results[0].ErrorRate {
		t.Errorf("error should not grow with reps: %.2f -> %.2f",
			results[0].ErrorRate, results[1].ErrorRate)
	}
}

func TestICacheChannelFasterThanDCache(t *testing.T) {
	// Figure 11: the I-Cache PoC reaches usable error at several times the
	// D-Cache PoC's rate (465 vs ~100 bps on the paper's machine).
	d := measureByShards(t, DCacheFigure11(), 1, 8, 31, 0)
	i := measureByShards(t, ICacheFigure11(), 1, 8, 31, 0)
	if i.CyclesPerBit >= d.CyclesPerBit {
		t.Errorf("I-Cache channel (%0.f cyc/bit) should beat D-Cache (%.0f)",
			i.CyclesPerBit, d.CyclesPerBit)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Reps: 3, Bits: 10, Errors: 2, ErrorRate: 0.2, CyclesPerBit: 1000, Bps: 3.6e6}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestDefaultRepsOddAndAscending(t *testing.T) {
	reps := DefaultReps()
	for i, r := range reps {
		if r%2 == 0 {
			t.Errorf("reps[%d]=%d is even (majority ties)", i, r)
		}
		if i > 0 && reps[i] <= reps[i-1] {
			t.Error("reps not ascending")
		}
	}
}
