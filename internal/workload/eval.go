package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"specinterference/internal/mem"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// EvalConfig drives a Figure 12 style defense-overhead sweep.
type EvalConfig struct {
	// Iters is the per-kernel loop count.
	Iters int
	// MaxCycles bounds each run.
	MaxCycles int64
	// Schemes lists the policies to evaluate against the unsafe baseline
	// (default: the two §5.2 fence defenses).
	Schemes []string
	// Cores for the machine (Figure 12's system is multi-core; one is
	// enough since the kernels are single-threaded).
	Cores int
}

// DefaultEvalConfig returns the Figure 12 setup.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{
		Iters:     2000,
		MaxCycles: 30_000_000,
		Schemes:   []string{"fence-spectre", "fence-futuristic"},
		Cores:     1,
	}
}

// EvalRow is one workload's normalized execution times.
type EvalRow struct {
	Workload       string
	BaselineCycles int64
	// Slowdown maps scheme name to execution time normalized to the
	// unsafe baseline (the Figure 12 y-axis).
	Slowdown map[string]float64
	// IPC of the unsafe baseline (diagnostics).
	BaselineIPC float64
}

// EvalResult is the full sweep.
type EvalResult struct {
	Rows []EvalRow
	// Geomean maps scheme name to the geometric-mean slowdown across
	// workloads (the paper reports 1.58x Spectre / 5.38x Futuristic
	// arithmetic averages over SPEC2017).
	Geomean map[string]float64
	// Mean is the arithmetic mean, matching the paper's "on average"
	// phrasing.
	Mean map[string]float64
}

// Cell is one workload×policy measurement of the Figure 12 grid.
type Cell struct {
	// Cycles is the kernel's execution time under the policy.
	Cycles int64 `json:"cycles"`
	// IPC is the run's instructions per cycle (diagnostics).
	IPC float64 `json:"ipc"`
}

// Normalize fills EvalConfig defaults (iters, cycle bound, schemes,
// cores), so shard planning, execution and aggregation all see one config.
func (cfg EvalConfig) Normalize() EvalConfig {
	if cfg.Iters <= 0 {
		cfg.Iters = DefaultEvalConfig().Iters
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = DefaultEvalConfig().MaxCycles
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = DefaultEvalConfig().Schemes
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	return cfg
}

// Policies returns the policy axis of the Figure 12 grid: the unsafe
// baseline followed by the configured schemes.
func (cfg EvalConfig) Policies() []string {
	return append([]string{"unsafe"}, cfg.Schemes...)
}

// EvalShards returns the Figure 12 shard count for a normalized config:
// one per workload×policy cell, baseline included.
func EvalShards(cfg EvalConfig) int {
	return len(All()) * len(cfg.Policies())
}

// EvalShard runs cell j of the grid: workload j/len(policies) under
// policy j%len(policies), where policy 0 is the unsafe baseline. The
// sweep is seedless and every run builds its own system, so EvalShard is
// a pure function of (cfg, j) and runs identically on any backend.
func EvalShard(cfg EvalConfig, j int) (Cell, error) {
	policies := cfg.Policies()
	cycles, ipc, err := runOnce(All()[j/len(policies)], policies[j%len(policies)], cfg)
	return Cell{Cycles: cycles, IPC: ipc}, err
}

// AggregateCells folds the EvalShards(cfg) cells (in shard-index order)
// into the Figure 12 result, replaying the serial loop's aggregation
// order so sums and geomeans are bit-identical however the cells ran.
func AggregateCells(cfg EvalConfig, cells []Cell) *EvalResult {
	ws := All()
	np := len(cfg.Policies())
	res := &EvalResult{
		Geomean: map[string]float64{},
		Mean:    map[string]float64{},
	}
	logSum := map[string]float64{}
	sum := map[string]float64{}
	for wi, w := range ws {
		base := cells[wi*np]
		row := EvalRow{
			Workload:       w.Name,
			BaselineCycles: base.Cycles,
			BaselineIPC:    base.IPC,
			Slowdown:       map[string]float64{},
		}
		for si, s := range cfg.Schemes {
			sd := float64(cells[wi*np+1+si].Cycles) / float64(base.Cycles)
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

// evalSys is one pooled evaluation machine. The pool hands each worker
// goroutine a machine it resets between cells instead of rebuilding —
// System.Reset restores exactly the NewSystem(cfg, mem.New()) state, so
// cells stay pure functions of (cfg, j) with or without reuse.
type evalSys struct {
	cores int
	seed  uint64
	sys   *uarch.System
}

var evalSysPool sync.Pool // *evalSys

// acquireEvalSys returns a machine for the given core count, reusing a
// pooled one when its shape matches.
func acquireEvalSys(cores int) (*evalSys, error) {
	if es, _ := evalSysPool.Get().(*evalSys); es != nil {
		if es.cores == cores {
			es.sys.Reset(es.seed)
			return es, nil
		}
		// Wrong shape for this sweep; drop it and build the right one.
	}
	ucfg := uarch.DefaultConfig(cores)
	sys, err := uarch.NewSystem(ucfg, mem.New())
	if err != nil {
		return nil, err
	}
	return &evalSys{cores: cores, seed: ucfg.Cache.Seed, sys: sys}, nil
}

// runOnce executes one kernel under one policy and returns cycles.
func runOnce(w Workload, policyName string, cfg EvalConfig) (int64, float64, error) {
	prog, setup := w.Build(cfg.Iters)
	es, err := acquireEvalSys(cfg.Cores)
	if err != nil {
		return 0, 0, err
	}
	defer evalSysPool.Put(es)
	sys := es.sys
	setup(sys.Memory())
	var policy uarch.SpecPolicy
	if policyName != "unsafe" {
		policy, err = schemes.ByName(policyName)
		if err != nil {
			return 0, 0, err
		}
	}
	// Warm the code so the comparison measures pipeline policy, not cold
	// instruction misses.
	for pc := 0; pc < prog.Len(); pc++ {
		sys.Hierarchy().WarmInst(0, prog.InstAddr(pc), 0)
	}
	if err := sys.LoadProgram(0, prog, policy); err != nil {
		return 0, 0, err
	}
	if err := sys.Run(cfg.MaxCycles); err != nil {
		return 0, 0, fmt.Errorf("workload %s under %s: %w", w.Name, policyName, err)
	}
	st := sys.Core(0).Stats()
	return st.Cycles, st.IPC(), nil
}

// Format renders the result as a Figure 12 style table.
func (r *EvalResult) Format(schemeOrder []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %12s", "workload", "base cycles")
	for _, s := range schemeOrder {
		fmt.Fprintf(&b, " %18s", s)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %12d", row.Workload, row.BaselineCycles)
		for _, s := range schemeOrder {
			fmt.Fprintf(&b, " %17.2fx", row.Slowdown[s])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-15s %12s", "mean", "")
	for _, s := range schemeOrder {
		fmt.Fprintf(&b, " %17.2fx", r.Mean[s])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-15s %12s", "geomean", "")
	for _, s := range schemeOrder {
		fmt.Fprintf(&b, " %17.2fx", r.Geomean[s])
	}
	b.WriteString("\n")
	return b.String()
}
