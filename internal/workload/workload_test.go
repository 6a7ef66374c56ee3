package workload

import (
	"testing"

	"specinterference/internal/emu"
	"specinterference/internal/mem"
)

func TestAllKernelsTerminateArchitecturally(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, setup := w.Build(50)
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			m := mem.New()
			setup(m)
			e := emu.New(prog, m)
			res, err := e.Run()
			if err != nil {
				t.Fatalf("emulator: %v", err)
			}
			if !res.Halted {
				t.Error("kernel did not halt")
			}
			if res.InstCount < 50 {
				t.Errorf("only %d instructions for 50 iterations", res.InstCount)
			}
		})
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("stream")
	if err != nil || w.Name != "stream" {
		t.Errorf("ByName(stream) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestKernelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate kernel %q", w.Name)
		}
		seen[w.Name] = true
	}
	if len(seen) < 6 {
		t.Errorf("only %d kernels", len(seen))
	}
}

func TestPointerChaseIsSerial(t *testing.T) {
	// The chase list must form a cycle: following `iters` hops never hits
	// address zero (which would mean a broken permutation).
	prog, setup := buildPointerChase(300)
	m := mem.New()
	setup(m)
	e := emu.New(prog, m)
	e.RecordLoads = true
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.LoadAddrs {
		if a == 0 {
			t.Fatalf("chase reached null at hop %d", i)
		}
	}
	// All hops distinct within one lap of the 256-node cycle.
	seen := map[int64]bool{}
	for _, a := range res.LoadAddrs[:256] {
		if seen[a] {
			t.Fatal("chase revisited a node within one lap")
		}
		seen[a] = true
	}
}

func TestBranchyHasUnpredictableBranches(t *testing.T) {
	prog, setup := buildBranchy(200)
	m := mem.New()
	setup(m)
	e := emu.New(prog, m)
	e.RecordBranches = true
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	taken := 0
	inner := 0
	for _, b := range res.Branches {
		if b.PC == prog.Symbols["even"]-3 { // the data-dependent beq
			inner++
			if b.Taken {
				taken++
			}
		}
	}
	if inner == 0 {
		t.Fatal("no data-dependent branches recorded")
	}
	frac := float64(taken) / float64(inner)
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("branch bias %.2f — not unpredictable enough", frac)
	}
}

func TestEvaluateFigure12Shape(t *testing.T) {
	cfg := DefaultEvalConfig()
	cfg.Iters = 300
	res := evaluateByShards(t, cfg, 0)
	if len(res.Rows) != len(All()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sp := res.Mean["fence-spectre"]
	fu := res.Mean["fence-futuristic"]
	// Figure 12's shape: Futuristic >> Spectre > baseline.
	if sp < 1.0 {
		t.Errorf("fence-spectre mean %.2fx < 1", sp)
	}
	if fu <= sp {
		t.Errorf("futuristic (%.2fx) must exceed spectre (%.2fx)", fu, sp)
	}
	if fu < 2 {
		t.Errorf("futuristic mean %.2fx implausibly low", fu)
	}
	// The branchy kernel must be among the most hurt under the Spectre
	// model (its cost is concentrated in unresolved branches).
	var branchySD, maxOtherSD float64
	for _, row := range res.Rows {
		if row.Workload == "branchy" {
			branchySD = row.Slowdown["fence-spectre"]
		} else if sd := row.Slowdown["fence-spectre"]; sd > maxOtherSD && row.Workload != "mixed" {
			maxOtherSD = sd
		}
	}
	if branchySD < maxOtherSD {
		t.Errorf("branchy (%.2fx) should suffer most under fence-spectre (max other %.2fx)",
			branchySD, maxOtherSD)
	}
	if out := res.Format(cfg.Schemes); out == "" {
		t.Error("empty format")
	}
}
