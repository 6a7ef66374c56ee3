package main

import (
	"fmt"
	"runtime"
	"time"

	"specinterference/internal/cache"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/mem"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
	kernels "specinterference/internal/workload"
)

// perOp times batches of ops calls to f and returns the median time per
// call, so one preempted batch does not move the figure.
func perOp(ops int, f func(i int)) time.Duration {
	const batches = 15
	per := make([]float64, batches)
	for b := range per {
		t := time.Now()
		for i := 0; i < ops; i++ {
			f(b*ops + i)
		}
		per[b] = float64(time.Since(t)) / float64(ops)
	}
	return time.Duration(median(per))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// microMetrics times the simulator's cost centres below the shard, each
// through its public entry point: resets of a Table 1 trial's system and
// its parts, one cache access, one memory word, one System.Step, and the
// static detector on every Table 1 cell.
func microMetrics(m metrics) error {
	if err := resetMetrics(m); err != nil {
		return err
	}

	ch := cache.NewHierarchy(cache.DefaultConfig(1))
	ch.SetLogging(false)
	const addr = 0x10000
	ch.AccessData(0, addr, cache.KindDataRead, true, 0)
	m.set("cache.l1_hit_ns", float64(perOp(20000, func(i int) {
		ch.AccessData(0, addr, cache.KindDataRead, true, int64(i)+1)
	})))
	m.set("cache.miss_walk_ns", float64(perOp(2000, func(i int) {
		ch.Flush(addr)
		ch.AccessData(0, addr, cache.KindDataRead, true, int64(i)+1)
	})))

	const words = 2048
	mm := mem.New()
	m.set("mem.rw_ns", float64(perOp(20000, func(i int) {
		a := int64(i%words) * 8
		mm.Write64(a, int64(i))
		mm.Read64(a)
	})))
	// Reset is O(footprint): refill the working set before every reset
	// and time the resets alone.
	var resets []float64
	for r := 0; r < 60; r++ {
		for w := int64(0); w < words; w++ {
			mm.Write64(w*8, w+1)
		}
		t := time.Now()
		mm.Reset()
		resets = append(resets, float64(time.Since(t))/1e3)
	}
	m.set("mem.reset_us", median(resets))

	stepNS, err := stepCost()
	if err != nil {
		return err
	}
	m.set("uarch.step_ns", stepNS)
	return detectMetrics(m)
}

// resetMetrics times System.Reset, Hierarchy.Reset and one LLC slice's
// Cache.Reset on the footprint a real trial leaves behind: every timed
// reset follows a fresh Table 1 trial on the system it clears, and only
// the reset is timed. cache.lines_per_reset is the number of valid lines
// that trial leaves in the hierarchy, counted just before the reset.
func resetMetrics(m metrics) error {
	ts := core.NewTrialState()
	trial := core.TrialSpec{Gadget: core.GadgetNPEU, Ordering: core.OrderVDVD}
	lines := 0
	timeReset := func(reset func(sys *uarch.System)) (float64, error) {
		per := make([]float64, 40)
		for i := range per {
			res, err := ts.Run(trial)
			if err != nil {
				return 0, fmt.Errorf("footprint trial: %w", err)
			}
			lines = validLines(res.System)
			t := time.Now()
			reset(res.System)
			per[i] = float64(time.Since(t)) / 1e3
		}
		return median(per), nil
	}
	for _, r := range []struct {
		name  string
		reset func(sys *uarch.System)
	}{
		{"uarch.system_reset_us", func(sys *uarch.System) { sys.Reset(1) }},
		{"cache.hierarchy_reset_us", func(sys *uarch.System) { sys.Hierarchy().Reset(1) }},
		{"cache.llc_reset_us", func(sys *uarch.System) { sys.Hierarchy().LLCSlice(0).Reset() }},
	} {
		v, err := timeReset(r.reset)
		if err != nil {
			return err
		}
		m.set(r.name, v)
	}
	m.set("cache.lines_per_reset", float64(lines))
	return nil
}

// validLines counts the valid lines in every cache of sys's hierarchy:
// each core's L1I, L1D and L2, and every LLC slice.
func validLines(sys *uarch.System) int {
	h := sys.Hierarchy()
	in := func(c *cache.Cache) int {
		n := 0
		for set := 0; set < c.Sets(); set++ {
			n += len(c.LinesInSet(set))
		}
		return n
	}
	n := 0
	for i := 0; i < sys.NumCores(); i++ {
		n += in(h.L1I(i)) + in(h.L1D(i))
		if l2 := h.L2(i); l2 != nil {
			n += in(l2)
		}
	}
	// The slices are reached through the addresses that map to them.
	slices := map[*cache.Cache]bool{}
	for line := int64(0); len(slices) < h.Config().LLCSlices; line++ {
		slices[h.LLCSlice(line*mem.LineBytes)] = true
	}
	for c := range slices {
		n += in(c)
	}
	return n
}

// stepCost is the time of one System.Step on the compute kernel, with the
// program reloaded in place at halt.
func stepCost() (float64, error) {
	k, err := kernels.ByName("compute")
	if err != nil {
		return 0, err
	}
	prog, setup := k.Build(200)
	mm := mem.New()
	setup(mm)
	sys, err := uarch.NewSystem(uarch.DefaultConfig(1), mm)
	if err != nil {
		return 0, err
	}
	sys.Hierarchy().SetLogging(false)
	var loadErr error
	load := func() {
		if err := sys.LoadProgram(0, prog, nil); err != nil && loadErr == nil {
			loadErr = err
		}
	}
	load()
	for !sys.AllHalted() && loadErr == nil {
		sys.Step()
	}
	load()
	d := perOp(20000, func(int) {
		if sys.AllHalted() {
			load()
		}
		sys.Step()
	})
	return float64(d), loadErr
}

// detectMetrics runs detect.CellVerdict, the static analysis alone, on
// every Table 1 cell and reports its time and allocation per cell.
func detectMetrics(m metrics) error {
	names := schemes.Names()
	var cellMS []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, combo := range core.Combos() {
		g, ord := combo[0].(core.Gadget), combo[1].(core.Ordering)
		for _, s := range names {
			t := time.Now()
			if _, err := detect.CellVerdict(s, g, ord); err != nil {
				return err
			}
			cellMS = append(cellMS, float64(time.Since(t))/1e6)
		}
	}
	runtime.ReadMemStats(&ms1)
	m.set("detect.cell_ms.p50", quantile(cellMS, 0.5))
	m.set("detect.cell_ms.p99", quantile(cellMS, 0.99))
	m.set("detect.alloc_kb_per_cell", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(cellMS)))
	return nil
}
