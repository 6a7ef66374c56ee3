package results

import (
	"path/filepath"
	"testing"
	"time"
)

// baselineRecord loads a fresh copy of the committed baseline record of
// an experiment: real engine output, without simulating anything here.
func baselineRecord(t *testing.T, exp string) *Record {
	t.Helper()
	store, err := Open(filepath.Join("testdata", "baseline"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Latest(exp)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	return rec
}

func TestRecordValidate(t *testing.T) {
	rec := baselineRecord(t, ExpTable1)
	if err := rec.Validate(); err != nil {
		t.Fatalf("fresh record invalid: %v", err)
	}

	twoPayloads := *rec
	twoPayloads.Figure7 = &Figure7Payload{}
	if err := twoPayloads.Validate(); err == nil {
		t.Fatal("record with two payloads passed validation")
	}

	wrongName := *rec
	wrongName.Experiment = ExpFigure7
	if err := wrongName.Validate(); err == nil {
		t.Fatal("record with mismatched experiment/payload passed validation")
	}

	tampered := *rec
	cells := append([]Table1Cell(nil), rec.Table1.Cells...)
	cells[0].Vulnerable = !cells[0].Vulnerable
	tampered.Table1 = &Table1Payload{Cells: cells}
	if err := tampered.Validate(); err == nil {
		t.Fatal("tampered payload passed hash validation")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := baselineRecord(t, ExpTable1)
	rec.Stamp(2, 5*time.Millisecond)
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	second := baselineRecord(t, ExpTable1)
	second.Meta.Note = "second"
	if err := s.Append(second); err != nil {
		t.Fatal(err)
	}

	recs, err := s.Load(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2", len(recs))
	}
	if recs[0].Meta.Workers != 2 || recs[0].Meta.GitRev == "" {
		t.Fatalf("first record lost its metadata: %+v", recs[0].Meta)
	}
	latest, err := s.Latest(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Meta.Note != "second" {
		t.Fatalf("Latest returned the wrong record: %+v", latest.Meta)
	}
	oldest, err := s.At(ExpTable1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oldest.Meta.Note == "second" {
		t.Fatal("At(0) returned the newest record")
	}
	if _, err := s.At(ExpTable1, 5); err == nil {
		t.Fatal("out-of-range index succeeded")
	}
	if _, err := s.Latest(ExpFigure7); err == nil {
		t.Fatal("Latest on empty history succeeded")
	}
	exps, err := s.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || exps[0] != ExpTable1 {
		t.Fatalf("Experiments() = %v, want [table1]", exps)
	}
}

func TestParseRef(t *testing.T) {
	for _, tc := range []struct {
		ref  string
		exp  string
		idx  int
		fail bool
	}{
		{ref: "table1", exp: ExpTable1, idx: -1},
		{ref: "figure7@0", exp: ExpFigure7, idx: 0},
		{ref: "figure11@-2", exp: ExpFigure11, idx: -2},
		{ref: "nonsense", fail: true},
		{ref: "table1@x", fail: true},
		{ref: "table1@1junk", fail: true},
	} {
		exp, idx, err := ParseRef(tc.ref)
		if tc.fail {
			if err == nil {
				t.Errorf("ParseRef(%q) succeeded, want error", tc.ref)
			}
			continue
		}
		if err != nil || exp != tc.exp || idx != tc.idx {
			t.Errorf("ParseRef(%q) = (%q, %d, %v), want (%q, %d)", tc.ref, exp, idx, err, tc.exp, tc.idx)
		}
	}
}

// TestDiffWorkerCountIdentical is the store's core guarantee: records
// of the same experiment at the same parameters that differ only in
// their volatile metadata — worker count, wall time — diff as identical.
// (That the engine produces the same payload at any worker count is
// checked in internal/experiment.)
func TestDiffWorkerCountIdentical(t *testing.T) {
	for _, exp := range []string{ExpTable1, ExpFigure7} {
		serial := baselineRecord(t, exp)
		serial.Stamp(1, time.Second)
		parallel := baselineRecord(t, exp)
		parallel.Stamp(4, time.Millisecond)

		if serial.Hash != parallel.Hash {
			t.Fatalf("%s: hashes differ across worker counts: %.12s vs %.12s", exp, serial.Hash, parallel.Hash)
		}
		if d := Diff(serial, parallel); d.Class != Identical || len(d.Findings) != 0 {
			t.Fatalf("%s: diff across worker counts = %s %v, want identical", exp, d.Class, d.Findings)
		}
	}
}

// TestDiffMatrixFlipRegression: flipping one (gadget, scheme) cell
// vulnerable↔protected must classify as a regression.
func TestDiffMatrixFlipRegression(t *testing.T) {
	old := baselineRecord(t, ExpTable1)

	flipped := *old
	cells := append([]Table1Cell(nil), old.Table1.Cells...)
	cells[0].Vulnerable = !cells[0].Vulnerable
	flipped.Table1 = &Table1Payload{Cells: cells}
	if _, err := (&flipped).seal(); err != nil {
		t.Fatal(err)
	}

	d := Diff(old, &flipped)
	if d.Class != Regression {
		t.Fatalf("diff after cell flip = %s %v, want regression", d.Class, d.Findings)
	}
	if len(d.Findings) != 1 || d.Findings[0].Class != Regression {
		t.Fatalf("want exactly one regression finding, got %v", d.Findings)
	}
}

func TestDiffIncomparable(t *testing.T) {
	table := baselineRecord(t, ExpTable1)
	figure := baselineRecord(t, ExpFigure7)
	if d := Diff(table, figure); d.Class != Incomparable {
		t.Fatalf("cross-experiment diff = %s, want incomparable", d.Class)
	}

	otherSeed := baselineRecord(t, ExpFigure7)
	otherSeed.Params.Seed++
	if _, err := otherSeed.seal(); err != nil {
		t.Fatal(err)
	}
	if d := Diff(figure, otherSeed); d.Class != Incomparable {
		t.Fatalf("cross-parameter diff = %s, want incomparable", d.Class)
	}
}

// synthetic payload diffs: thresholds fire exactly as documented.
func sealedFigure7(t *testing.T, sep, overlap float64) *Record {
	t.Helper()
	r := &Record{
		Experiment: ExpFigure7,
		Params:     Params{Trials: 2, Jitter: 1, Seed: 1},
		Figure7: &Figure7Payload{
			Baseline: []float64{100, 100}, Interference: []float64{100 + sep, 100 + sep},
			Separation: sep, Overlap: overlap,
		},
	}
	if _, err := r.seal(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiffFigure7Thresholds(t *testing.T) {
	base := sealedFigure7(t, 80, 0.05)
	if d := Diff(base, sealedFigure7(t, 70, 0.08)); d.Class != Drift {
		t.Fatalf("small separation move = %s %v, want drift", d.Class, d.Findings)
	}
	if d := Diff(base, sealedFigure7(t, 10, 0.05)); d.Class != Regression {
		t.Fatalf("separation collapse = %s, want regression", d.Class)
	}
	if d := Diff(base, sealedFigure7(t, 80, 0.9)); d.Class != Regression {
		t.Fatalf("overlap explosion = %s, want regression", d.Class)
	}
	// A sign inversion is a full collapse of the interference effect even
	// when the magnitudes are close.
	if d := Diff(base, sealedFigure7(t, -65, 0.05)); d.Class != Regression {
		t.Fatalf("separation sign inversion = %s %v, want regression", d.Class, d.Findings)
	}
}

// TestDiffRecomputesHashes: a fixture whose hash field was stripped (or
// never written) must still diff as identical against a byte-identical
// payload — the comparison trusts recomputed signatures, not stored
// strings.
func TestDiffRecomputesHashes(t *testing.T) {
	a := sealedFigure7(t, 80, 0.05)
	b := sealedFigure7(t, 80, 0.05)
	b.Hash = ""
	if d := Diff(b, a); d.Class != Identical || len(d.Findings) != 0 {
		t.Fatalf("diff with a hashless old record = %s %v, want identical", d.Class, d.Findings)
	}
	if d := Diff(a, b); d.Class != Identical {
		t.Fatalf("diff with a hashless new record = %s, want identical", d.Class)
	}
}

func sealedFigure11(t *testing.T, errorRates ...float64) *Record {
	t.Helper()
	reps := make([]int, len(errorRates))
	pts := make([]CurvePoint, len(errorRates))
	for i, er := range errorRates {
		reps[i] = 1 // duplicate reps values are legal: seeds differ by position
		pts[i] = CurvePoint{Reps: 1, Bits: 4, ErrorRate: er, CyclesPerBit: 2000, Bps: 1e6}
	}
	r := &Record{
		Experiment: ExpFigure11,
		Params:     Params{PoCs: []string{"dcache"}, Bits: 4, Reps: reps, Seed: 1},
		Figure11: &Figure11Payload{Curves: []Figure11Curve{{
			PoC: "dcache", Scheme: "invisispec-spectre", Points: pts,
		}}},
	}
	if _, err := r.seal(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiffFigure11Thresholds(t *testing.T) {
	base := sealedFigure11(t, 0.1)
	if d := Diff(base, sealedFigure11(t, 0.2)); d.Class != Drift {
		t.Fatalf("small error-rate move = %s %v, want drift", d.Class, d.Findings)
	}
	if d := Diff(base, sealedFigure11(t, 0.5)); d.Class != Regression {
		t.Fatalf("error-rate collapse = %s, want regression", d.Class)
	}
	// Duplicate reps values pair positionally: a collapse in the second
	// duplicate point must not hide behind the healthy first one.
	if d := Diff(sealedFigure11(t, 0.1, 0.1), sealedFigure11(t, 0.1, 0.6)); d.Class != Regression {
		t.Fatalf("collapse in a duplicate-reps point = %s, want regression", d.Class)
	}
}

func sealedFigure12(t *testing.T, slowdown float64) *Record {
	t.Helper()
	r := &Record{
		Experiment: ExpFigure12,
		Params:     Params{Iters: 10, Schemes: []string{"fence-spectre"}},
		Figure12: &Figure12Payload{
			Rows: []Figure12Row{{
				Workload: "stream", BaselineCycles: 1000, BaselineIPC: 1,
				Slowdown: map[string]float64{"fence-spectre": slowdown},
			}},
			Mean:    map[string]float64{"fence-spectre": slowdown},
			Geomean: map[string]float64{"fence-spectre": slowdown},
		},
	}
	if _, err := r.seal(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiffFigure12Thresholds(t *testing.T) {
	base := sealedFigure12(t, 1.6)
	if d := Diff(base, sealedFigure12(t, 1.7)); d.Class != Drift {
		t.Fatalf("small slowdown move = %s %v, want drift", d.Class, d.Findings)
	}
	if d := Diff(base, sealedFigure12(t, 4.0)); d.Class != Regression {
		t.Fatalf("slowdown explosion = %s, want regression", d.Class)
	}
}

func TestGitRevision(t *testing.T) {
	if rev := GitRevision(); rev == "" {
		t.Fatal("GitRevision returned an empty string")
	}
}
