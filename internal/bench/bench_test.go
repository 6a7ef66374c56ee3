package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: specinterference
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable1Matrix-8                	       1	 351425908 ns/op	        98.00 cells-matching-paper	        98.00 cells-total	221584432 B/op	 3419948 allocs/op
BenchmarkTrialSteadyStateFigure7      	       1	   1384389 ns/op	       350.0 target-latency-cycles	  890944 B/op	   12429 allocs/op
BenchmarkSummarizeBaseline            	       2	     44719 ns/op	    8192 B/op	       1 allocs/op
PASS
ok  	specinterference	4.478s
`

func TestParseOutput(t *testing.T) {
	rs, err := ParseOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	// Sorted canonically, GOMAXPROCS suffix stripped.
	if rs[0].Name != "SummarizeBaseline" || rs[1].Name != "Table1Matrix" || rs[2].Name != "TrialSteadyStateFigure7" {
		t.Fatalf("bad names: %v %v %v", rs[0].Name, rs[1].Name, rs[2].Name)
	}
	m := rs[1]
	if m.NsPerOp != 351425908 || m.BytesPerOp != 221584432 || m.AllocsPerOp != 3419948 {
		t.Fatalf("bad table1 measurement: %+v", m.Entry)
	}
	if m.Metrics["cells-matching-paper"] != 98 || m.Metrics["cells-total"] != 98 {
		t.Fatalf("bad table1 metrics: %v", m.Metrics)
	}
	if rs[2].Metrics["target-latency-cycles"] != 350 {
		t.Fatalf("bad figure7 metric: %v", rs[2].Metrics)
	}
}

func TestCanonicalName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkTable1Matrix-8":      "Table1Matrix",
		"BenchmarkTable1Matrix":        "Table1Matrix",
		"BenchmarkAblationCDBWidth-16": "AblationCDBWidth",
		"BenchmarkFoo-bar":             "Foo-bar", // non-numeric suffix stays
	} {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := store.Load("Missing"); err != nil || tr != nil {
		t.Fatalf("missing trajectory: got %v, %v", tr, err)
	}
	e1 := Entry{Date: "2026-08-07", Note: "pre", NsPerOp: 100, AllocsPerOp: 50, BytesPerOp: 4096,
		Metrics: map[string]float64{"separation-cycles": 75.45}}
	e2 := Entry{Date: "2026-08-07", Note: "post", NsPerOp: 60, AllocsPerOp: 0, BytesPerOp: 0,
		Metrics: map[string]float64{"separation-cycles": 75.45}}
	if err := store.Append("X", e1); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("X", e2); err != nil {
		t.Fatal(err)
	}
	tr, err := store.Load("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(tr.Entries))
	}
	base, err := tr.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if base.Note != "post" || base.AllocsPerOp != 0 {
		t.Fatalf("baseline is not the newest entry: %+v", base)
	}
	names, err := store.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "X" {
		t.Fatalf("Names = %v", names)
	}
	if got := store.Path("X"); filepath.Base(got) != "BENCH_X.json" {
		t.Fatalf("Path = %s", got)
	}
}

func TestDiffBands(t *testing.T) {
	tol := DefaultTolerance()
	base := Entry{NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000,
		Metrics: map[string]float64{"m": 1.5}}

	// Inside every band: nothing fails.
	cur := Entry{NsPerOp: 3000, AllocsPerOp: 110, BytesPerOp: 12000,
		Metrics: map[string]float64{"m": 1.5}}
	for _, d := range Diff("Whatever", base, cur, tol) {
		if d.Class == Regression || d.Class == Missing {
			t.Errorf("unexpected failure: %+v", d)
		}
	}

	// ns/op beyond the band regresses.
	cur = base
	cur.NsPerOp = base.NsPerOp * tol.NsBand * 2
	if d := find(Diff("Whatever", base, cur, tol), "ns/op"); d.Class != Regression {
		t.Errorf("ns blowup: got %v", d.Class)
	}

	// allocs beyond the band regresses on non-exact benchmarks.
	cur = base
	cur.AllocsPerOp = base.AllocsPerOp * 2
	if d := find(Diff("Whatever", base, cur, tol), "allocs/op"); d.Class != Regression {
		t.Errorf("alloc blowup: got %v", d.Class)
	}

	// Shape metrics are exact.
	cur = base
	cur.Metrics = map[string]float64{"m": 1.5000001}
	if d := find(Diff("Whatever", base, cur, tol), "m"); d.Class != Regression {
		t.Errorf("metric drift: got %v", d.Class)
	}
}

func TestDiffExactAllocs(t *testing.T) {
	tol := DefaultTolerance()
	const name = "TrialSteadyStateFigure7"
	if !tol.ExactAllocs[name] {
		t.Fatalf("%s must be exact-gated", name)
	}
	base := Entry{NsPerOp: 1000, AllocsPerOp: 0, BytesPerOp: 0}

	// One stray alloc fails the exact gate even though 0→1 is tiny.
	cur := base
	cur.AllocsPerOp = 1
	cur.BytesPerOp = 16
	ds := Diff(name, base, cur, tol)
	if d := find(ds, "allocs/op"); d.Class != Regression {
		t.Errorf("exact alloc gate: got %v", d.Class)
	}
	if d := find(ds, "B/op"); d.Class != Regression {
		t.Errorf("exact byte gate: got %v", d.Class)
	}

	// An improvement is flagged (bless to record it), not silently passed.
	base.AllocsPerOp, base.BytesPerOp = 5, 100
	cur = base
	cur.AllocsPerOp, cur.BytesPerOp = 0, 0
	d := find(Diff(name, base, cur, tol), "allocs/op")
	if d.Class != Improved {
		t.Errorf("exact improvement: got %v", d.Class)
	}
	if !d.fails(true) {
		t.Error("exact-gated improvement must fail the check until blessed")
	}
}

func TestCheck(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tol := DefaultTolerance()
	base := Entry{NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 100}
	if err := store.Append("A", base); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("Gone", base); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(store, []Result{
		{Name: "A", Entry: base},
		{Name: "New", Entry: base},
	}, tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("check passed despite missing trajectory and vanished benchmark")
	}
	var whys []string
	for _, d := range rep.Failures {
		whys = append(whys, d.Name+": "+d.Why)
	}
	joined := strings.Join(whys, "; ")
	if !strings.Contains(joined, "New") || !strings.Contains(joined, "Gone") {
		t.Fatalf("failures = %s", joined)
	}

	// Clean run: the matched benchmark alone, identical numbers.
	rep, err = Check(store, []Result{{Name: "A", Entry: base}}, tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "Gone" is still missing from the run.
	if rep.OK() {
		t.Fatal("vanished benchmark must fail")
	}

	// A run that selected only "A" (go test -bench '^BenchmarkA$') does
	// not owe "Gone"; one whose selection covers "Gone" still does.
	rep, err = Check(store, []Result{{Name: "A", Entry: base}}, tol, func(name string) bool { return name == "A" })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unselected trajectory failed the check: %s", rep.Format(true))
	}
	rep, err = Check(store, []Result{{Name: "A", Entry: base}}, tol, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("selected vanished benchmark must fail")
	}
}

func TestBlessThenCheck(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := []Result{
		{Name: "A", Entry: Entry{NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 100}},
		{Name: "B", Entry: Entry{NsPerOp: 2000, Metrics: map[string]float64{"m": 3}}},
	}
	if err := Bless(store, rs, "2026-08-07", "deadbeef", "go1.24.0", "initial"); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(store, rs, DefaultTolerance(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("bless-then-check must pass: %s", rep.Format(true))
	}
	tr, err := store.Load("A")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tr.Baseline()
	if b.Commit != "deadbeef" || b.Note != "initial" || b.Go != "go1.24.0" {
		t.Fatalf("provenance not stamped: %+v", b)
	}
}

func find(ds []Delta, field string) Delta {
	for _, d := range ds {
		if d.Field == field {
			return d
		}
	}
	return Delta{Class: Missing, Why: "field not found: " + field}
}
