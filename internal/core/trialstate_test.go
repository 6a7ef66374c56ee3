package core

import (
	"runtime"
	"sync"
	"testing"

	"specinterference/internal/cache"
	"specinterference/internal/mem"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// sweepCase is one fresh-vs-reused comparison. When scheme is set, a
// fresh policy is built for every run — stateful policies must never be
// shared between trials.
type sweepCase struct {
	spec   TrialSpec
	scheme string
}

// trialStateSweep covers every gadget/ordering combination plus the shape
// (jitter, noise), seed and policy axes — the surface the reuse fast path
// must keep bit-identical to fresh construction.
func trialStateSweep() []sweepCase {
	return []sweepCase{
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 0, Trace: true}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 5, Seed: 7, Trace: true}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDAD, Secret: 1, RefCycle: 300}},
		{spec: TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVDVD, Secret: 1}},
		{spec: TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVDAD, Secret: 0, RefCycle: 250}},
		{spec: TrialSpec{Gadget: GadgetRS, Ordering: OrderVIAD, Secret: 1, RefCycle: 200}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 5, ReplNoisePct: 10, Seed: 3}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 5, Seed: 7, Trace: true}}, // shape revisit
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Trace: true}, scheme: "dom"},
		{spec: TrialSpec{Gadget: GadgetRS, Ordering: OrderVIAD, Secret: 1, RefCycle: 200}, scheme: "invisispec-spectre"},
	}
}

// TestTrialStateMatchesRunTrial pins the tentpole equivalence: one reused
// TrialState stepping through a shape- and seed-varying spec sequence
// produces trial-for-trial the results fresh RunTrial machines produce.
func TestTrialStateMatchesRunTrial(t *testing.T) {
	ts := NewTrialState()
	for i, tc := range trialStateSweep() {
		withPolicy := func() TrialSpec {
			spec := tc.spec
			if tc.scheme != "" {
				p, err := schemes.ByName(tc.scheme)
				if err != nil {
					t.Fatal(err)
				}
				spec.Policy = p
			}
			return spec
		}
		fresh, err := RunTrial(withPolicy())
		if err != nil {
			t.Fatalf("spec %d: fresh: %v", i, err)
		}
		reused, err := ts.Run(withPolicy())
		if err != nil {
			t.Fatalf("spec %d: reused: %v", i, err)
		}
		if got, want := reused.Signature(), fresh.Signature(); got != want {
			t.Errorf("spec %d: signature %q != fresh %q", i, got, want)
		}
		if reused.SecretLineCycle != fresh.SecretLineCycle {
			t.Errorf("spec %d: secret-line cycle %d != fresh %d",
				i, reused.SecretLineCycle, fresh.SecretLineCycle)
		}
		if reused.VictimStats != fresh.VictimStats {
			t.Errorf("spec %d: victim stats %+v != fresh %+v",
				i, reused.VictimStats, fresh.VictimStats)
		}
		if len(reused.Events) != len(fresh.Events) {
			t.Errorf("spec %d: %d events != fresh %d", i, len(reused.Events), len(fresh.Events))
		} else {
			for j := range reused.Events {
				if reused.Events[j] != fresh.Events[j] {
					t.Errorf("spec %d event %d: %+v != fresh %+v",
						i, j, reused.Events[j], fresh.Events[j])
				}
			}
		}
		if len(reused.Records) != len(fresh.Records) {
			t.Errorf("spec %d: %d records != fresh %d", i, len(reused.Records), len(fresh.Records))
		} else {
			for j := range reused.Records {
				if reused.Records[j] != fresh.Records[j] {
					t.Errorf("spec %d record %d: %+v != fresh %+v",
						i, j, reused.Records[j], fresh.Records[j])
					break
				}
			}
		}
	}
}

// TestTrialStatePoCBitMatchesFresh pins the PoC fast path (memoized
// receiver and programs on a reused machine) against fresh per-bit
// machines, for every PoC kind.
func TestTrialStatePoCBitMatchesFresh(t *testing.T) {
	pocs := []*PoC{
		NewDCachePoC("dom", 0),
		NewICachePoC("invisispec-spectre", 0),
		{SchemeName: "invisispec-spectre", Kind: MSHRPoC},
	}
	for _, poc := range pocs {
		// freshOutcomes replays the pre-reuse flow: a brand-new TrialState
		// per bit, so nothing is memoized across bits.
		type key struct{ bit, rep int }
		want := map[key]BitOutcome{}
		for rep := 0; rep < 2; rep++ {
			for bit := 0; bit <= 1; bit++ {
				spec, err := poc.spec(bit, uint64(rep+1))
				if err != nil {
					t.Fatal(err)
				}
				st := NewTrialState()
				var out BitOutcome
				if poc.Kind == ICachePoC {
					out, err = poc.runICacheBit(st, spec)
				} else {
					out, err = poc.runReplacementStateBit(st, spec)
				}
				if err != nil {
					t.Fatalf("%s fresh bit %d rep %d: %v", poc.Kind, bit, rep, err)
				}
				want[key{bit, rep}] = out
			}
		}
		// RunBit goes through the pooled, memoized path.
		for rep := 0; rep < 2; rep++ {
			for bit := 0; bit <= 1; bit++ {
				out, err := poc.RunBit(bit, uint64(rep+1))
				if err != nil {
					t.Fatalf("%s pooled bit %d rep %d: %v", poc.Kind, bit, rep, err)
				}
				if out != want[key{bit, rep}] {
					t.Errorf("%s bit %d rep %d: pooled outcome %+v != fresh %+v",
						poc.Kind, bit, rep, out, want[key{bit, rep}])
				}
			}
		}
	}
}

// TestTrialStateTweakBypassesReuse: tweaked specs must build fresh
// machines (and skip the receiver memo), and must not poison the cached
// machine for subsequent untweaked trials.
func TestTrialStateTweakBypassesReuse(t *testing.T) {
	ts := NewTrialState()
	plain := TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1}
	before, err := ts.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	sigBefore := before.Signature()
	cachedSys := ts.sys

	tweaked := plain
	tweaked.Tweak = func(c *uarch.Config) { c.CDBWidth = 1 }
	rTweaked, err := ts.Run(tweaked)
	if err != nil {
		t.Fatal(err)
	}
	if rTweaked.System == cachedSys {
		t.Error("tweaked trial ran on the cached machine")
	}

	after, err := ts.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if after.System != cachedSys {
		t.Error("untweaked trial after a tweak did not reuse the cached machine")
	}
	if got := after.Signature(); got != sigBefore {
		t.Errorf("signature after tweak detour %q != before %q", got, sigBefore)
	}
}

// everyCache lists every cache of h: each core's private levels, then one
// handle per LLC slice (slices are reachable only by address, so line
// addresses are scanned until each slice has turned up).
func everyCache(h *cache.Hierarchy) []*cache.Cache {
	cfg := h.Config()
	var cs []*cache.Cache
	for c := 0; c < cfg.Cores; c++ {
		cs = append(cs, h.L1I(c), h.L1D(c))
		if h.HasL2() {
			cs = append(cs, h.L2(c))
		}
	}
	seen := map[*cache.Cache]bool{}
	for a := int64(0); len(seen) < cfg.LLCSlices; a += mem.LineBytes {
		if s := h.LLCSlice(a); !seen[s] {
			seen[s] = true
			cs = append(cs, s)
		}
	}
	return cs
}

// cacheDiffs counts the sets (and statistics blocks) in which got differs
// from want, reporting the first few through t when report is set.
func cacheDiffs(t *testing.T, got, want []*cache.Cache, report bool) int {
	t.Helper()
	n := 0
	for i := range want {
		if got[i].Stats() != want[i].Stats() {
			n++
			if report {
				t.Errorf("%s stats %+v, fresh %+v", got[i].Name(), got[i].Stats(), want[i].Stats())
			}
		}
		for s := 0; s < want[i].Sets(); s++ {
			if g, w := got[i].DumpSet(s), want[i].DumpSet(s); g != w {
				n++
				if report && n <= 5 {
					t.Errorf("%s, fresh %s", g, w)
				}
			}
		}
	}
	return n
}

// TestResetLeavesEveryCacheSetFresh pins the dirty-set reset at machine
// level: after a Table 1 cell's trials (both cores, reference injection)
// and a MuonTrap trial whose squash flushes the filter cache through
// InvalidateAll, System.Reset leaves every set of every cache — lines,
// valid bits, replacement state — and every cache's statistics equal to a
// freshly built AttackConfig machine, and the memoized MuonTrap filter
// equal to a fresh one.
func TestResetLeavesEveryCacheSetFresh(t *testing.T) {
	fresh := uarch.MustNewSystem(AttackConfig(), mem.New())
	freshCaches := everyCache(fresh.Hierarchy())
	ts := NewTrialState()
	policy := func(name string) uarch.SpecPolicy {
		p, err := ts.Policy(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	cell := TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDAD, Secret: 1, RefCycle: 300, Policy: policy("dom")}
	mt := policy("muontrap").(*schemes.MuonTrap)
	muon := TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVIAD, Secret: 1, Policy: mt}
	for _, spec := range []TrialSpec{cell, muon} {
		r, err := ts.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys := r.System
		if cacheDiffs(t, everyCache(sys.Hierarchy()), freshCaches, false) == 0 {
			t.Fatalf("%s/%s trial left every cache fresh; the check below would be vacuous", spec.Gadget, spec.Ordering)
		}
		sys.Reset(1)
		cacheDiffs(t, everyCache(sys.Hierarchy()), freshCaches, true)
	}

	if mt.Filter().Stats().Invalidates == 0 {
		t.Fatal("MuonTrap trial never flushed a filled filter line on squash")
	}
	freshFilter := schemes.NewMuonTrap(mt.Filter().Sets(), mt.Filter().Ways()).Filter()
	policy("muontrap") // the memoized handout resets the filter
	cacheDiffs(t, []*cache.Cache{mt.Filter()}, []*cache.Cache{freshFilter}, true)
}

// TestTrialLoopAllocFree pins the tentpole's headline number: the
// steady-state per-trial loops allocate nothing once their worker state is
// warm. testing.AllocsPerRun pins averages, so any regression — even one
// allocation per trial — fails loudly.
func TestTrialLoopAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	warm := func(f func()) float64 {
		runtime.GC() // keep an organic GC from emptying the pool mid-measurement
		f()          // warm the pooled TrialState, memos and buffers
		return testing.AllocsPerRun(10, f)
	}

	if n := warm(func() {
		if _, err := Figure7Shard(40, 30, 1, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Figure7Shard steady-state trial: %.1f allocs/run, want 0", n)
	}

	poc := NewDCachePoC("dom", 0)
	if n := warm(func() {
		if _, err := poc.RunBit(1, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PoC RunBit steady-state trial: %.1f allocs/run, want 0", n)
	}

	// A matrix cell runs 2–6 trials plus per-cell policy construction and
	// signature strings; it cannot be zero, but it must stay within a few
	// allocations per cell (it was ~25k before the reuse layer).
	names := schemes.Names()
	if n := warm(func() {
		if _, err := MatrixShard(names, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 16 {
		t.Errorf("MatrixShard steady-state cell: %.1f allocs/run, want <= 16", n)
	}
}

// TestVictimCacheResetRaceFree hammers the victim cache from concurrent
// shards while another goroutine keeps swapping in fresh generations —
// the exact interleaving the old clear-in-place reset raced on. Run under
// -race this pins the atomic-swap reset; in any mode it checks that every
// lookup still returns a well-formed victim and stats stay coherent.
func TestVictimCacheResetRaceFree(t *testing.T) {
	defer resetVictimCache()
	h := cache.NewHierarchy(AttackConfig().Cache)
	l := DefaultLayout(h)
	params := DefaultVictimParams()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := []Gadget{GadgetNPEU, GadgetMSHR, GadgetRS}[i%3]
				ord := OrderVDVD
				if g == GadgetRS {
					ord = OrderVIAD
				}
				v, err := cachedVictim(g, ord, l, params)
				if err != nil {
					t.Error(err)
					return
				}
				if v == nil || v.Prog == nil {
					t.Error("cachedVictim returned an empty victim")
					return
				}
				hits, misses := VictimCacheStats()
				_ = hits + misses // stats must be readable mid-reset
			}
		}()
	}
	for i := 0; i < 200; i++ {
		resetVictimCache()
	}
	close(stop)
	wg.Wait()
}
