package detect

import (
	"context"
	"testing"

	"specinterference/internal/core"
	"specinterference/internal/runner"
	"specinterference/internal/schemes"
)

// TestCellVerdictAllCells is the detector⇔schemes contract: every
// registered policy must yield a verdict (no error) for every gadget and
// ordering the matrix runs, and that verdict must equal the committed
// Table 1 expectation for the cell. This checks the static analysis
// against the paper's ground truth without running the simulator.
func TestCellVerdictAllCells(t *testing.T) {
	expected := core.ExpectedTable1()
	for _, combo := range core.Combos() {
		g := combo[0].(core.Gadget)
		ord := combo[1].(core.Ordering)
		row := expected[g.String()+"|"+ord.String()]
		for _, name := range schemes.Names() {
			v, err := CellVerdict(name, g, ord)
			if err != nil {
				t.Errorf("%s/%s/%s: %v", name, g, ord, err)
				continue
			}
			if want := row[name]; v.Leak != want {
				t.Errorf("%s/%s/%s: detector says %v, Table 1 says leak=%v", name, g, ord, v, want)
			}
			if v.Mechanism == "" {
				t.Errorf("%s/%s/%s: verdict without mechanism", name, g, ord)
			}
		}
	}
}

// TestConcordanceMatrix runs the full empirical-vs-static grid for the
// paper's schemes and requires every cell to match with no enumerated
// exceptions (the allowlist is empty and should stay that way).
func TestConcordanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator grid in -short mode")
	}
	names := schemes.Names()
	cells, err := runner.Map(context.Background(), Shards(names), 0, func(_ context.Context, j int) (Cell, error) {
		return Shard(names, j)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCells(cells); err != nil {
		t.Fatal(err)
	}
	if got, want := len(cells), Shards(names); got != want {
		t.Fatalf("got %d cells, want %d", got, want)
	}
	for _, c := range cells {
		if c.Exception != "" {
			t.Errorf("%s/%s/%s: unexpected exception entry %q", c.Scheme, c.Gadget, c.Ordering, c.Exception)
		}
	}
}
