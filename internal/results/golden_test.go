// The golden and baseline tests regenerate every experiment through the
// experiment engine, which imports this package; they live in the
// external test package so they can import it back without a cycle.
package results_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// update regenerates the golden files and the committed regression
// baseline instead of asserting against them:
//
//	go test ./internal/results -run 'TestGolden|TestBaseline' -update
var update = flag.Bool("update", false, "rewrite golden files and the committed baseline")

// goldenPath returns testdata/<exp>.golden.json.
func goldenPath(exp string) string {
	return filepath.Join("testdata", exp+".golden.json")
}

// baselineDir is the committed baseline store the CI `resultstore check`
// step gates against.
const baselineDir = "testdata/baseline"

// regenerate reruns one experiment at the given parameters through
// experiment.Run on the default in-process backend.
func regenerate(t *testing.T, exp string, p results.Params) *results.Record {
	t.Helper()
	spec, err := experiment.Lookup(exp)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := experiment.Run(context.Background(), spec, p, nil, nil)
	if err != nil {
		t.Fatalf("regenerate %s: %v", exp, err)
	}
	return rec
}

// goldenBytes renders a record the way the golden files store it: the
// canonical (signature-covered) view, pretty-printed for reviewable
// diffs, trailing newline included.
func goldenBytes(t *testing.T, rec *results.Record) []byte {
	t.Helper()
	canonical, err := rec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	pretty.WriteByte('\n')
	return pretty.Bytes()
}

// testGolden regenerates one experiment at the committed baseline
// parameters and asserts its canonical encoding is byte-identical to the
// golden file (or rewrites the golden under -update).
func testGolden(t *testing.T, exp string) {
	params, err := results.BaselineParams(exp)
	if err != nil {
		t.Fatal(err)
	}
	rec := regenerate(t, exp, params)
	got := goldenBytes(t, rec)
	path := goldenPath(exp)

	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %.12s)", path, len(got), rec.Hash)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverged from its golden file.\n"+
			"If the change is intentional, regenerate with:\n"+
			"  go test ./internal/results -run TestGolden -update\ngot:\n%swant:\n%s",
			exp, got, want)
	}
}

func TestGoldenFigure7(t *testing.T)  { testGolden(t, results.ExpFigure7) }
func TestGoldenTable1(t *testing.T)   { testGolden(t, results.ExpTable1) }
func TestGoldenFigure11(t *testing.T) { testGolden(t, results.ExpFigure11) }
func TestGoldenFigure12(t *testing.T) { testGolden(t, results.ExpFigure12) }

func TestGoldenConcordance(t *testing.T) { testGolden(t, results.ExpConcordance) }

// TestBaselineCurrent mirrors the CI `resultstore check` gate in-process:
// every committed baseline record must diff as identical against a fresh
// run of its experiment at its recorded parameters. Under -update the
// baseline is rewritten instead (volatile metadata kept empty so the
// committed files stay deterministic).
func TestBaselineCurrent(t *testing.T) {
	if *update {
		store, err := results.Open(baselineDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, exp := range results.Experiments() {
			params, err := results.BaselineParams(exp)
			if err != nil {
				t.Fatal(err)
			}
			rec := regenerate(t, exp, params)
			rec.Meta = results.Meta{Note: "baseline"}
			if err := store.Replace(rec); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s baseline (%.12s)", exp, rec.Hash)
		}
		return
	}

	store, err := results.Open(baselineDir)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := store.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(results.Experiments()) {
		t.Fatalf("baseline holds %v, want all of %v (regenerate with -update)", exps, results.Experiments())
	}
	for _, exp := range exps {
		ref, err := store.Latest(exp)
		if err != nil {
			t.Fatal(err)
		}
		fresh := regenerate(t, exp, ref.Params)
		if d := results.Diff(ref, fresh); d.Class != results.Identical {
			t.Errorf("%s diverged from the committed baseline (class %s):\n%s"+
				"If intentional, regenerate with:\n"+
				"  go test ./internal/results -run TestBaseline -update",
				exp, d.Class, d.Format())
		}
	}
}
