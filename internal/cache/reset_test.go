package cache

import (
	"fmt"
	"testing"
)

const (
	resetTestSets = 16
	resetTestWays = 4
	resetTestSeed = 7
)

// resetTestCache builds the cache TestResetMatchesFreshCache compares,
// returning the Rand it shares with its random policy or noise wrappers
// (the hierarchy reseeds that Rand on reset; the test does the same).
func resetTestCache(k PolicyKind, noisePct int) (*Cache, *Rand) {
	rng := NewRand(resetTestSeed)
	c := NewCache("t", resetTestSets, resetTestWays, 1, k, rng)
	if noisePct > 0 {
		c.AddReplacementNoise(noisePct, rng)
	}
	return c, rng
}

// driveCache applies n seeded random operations to c and returns the
// observable stream: each eviction's victim line, each lookup's outcome.
// Sets 0-7 see every operation — fills, lookups, touches, invalidates,
// replacement-state updates through SetState and the odd InvalidateAll.
// Sets 8-9 only see fills and lookups, sets 10-11 only SetState updates,
// so that no mutating path's dirty marking is masked by another's; sets
// 12-15 stay untouched.
func driveCache(c *Cache, seed uint64, n int) []int64 {
	rng := NewRand(seed)
	var out []int64
	for i := 0; i < n; i++ {
		set := rng.Intn(resetTestSets - 4)
		tag := int64(rng.Intn(3 * resetTestWays))
		addr := (tag*resetTestSets + int64(set)) * 64
		op := rng.Intn(100)
		switch {
		case set >= 10:
			op = 92
		case set >= 8 && op >= 65:
			op = 0
		}
		switch {
		case op < 45:
			if ev, ok := c.Fill(addr); ok {
				out = append(out, ev)
			}
		case op < 65:
			if c.Lookup(addr) {
				out = append(out, -1)
			} else {
				out = append(out, -2)
			}
		case op < 80:
			c.Touch(addr)
		case op < 92:
			c.Invalidate(addr)
		case op < 98:
			c.SetState(set).OnHit(rng.Intn(resetTestWays))
		default:
			c.InvalidateAll()
		}
	}
	return out
}

// TestResetMatchesFreshCache pins the dirty-set Reset contract: after any
// mix of mutating operations, Reset leaves every set — lines, valid bits
// and replacement state — and the statistics exactly as NewCache builds
// them, for every policy with and without replacement noise, and the reset
// cache then replays a second operation sequence identically to a fresh one.
func TestResetMatchesFreshCache(t *testing.T) {
	policies := []PolicyKind{PolicyLRU, PolicyTreePLRU, PolicyNRU, PolicySRRIP, PolicyQLRU, PolicyRandom}
	for _, k := range policies {
		for _, noisePct := range []int{0, 25} {
			t.Run(fmt.Sprintf("%s/noise%d", k, noisePct), func(t *testing.T) {
				used, usedRng := resetTestCache(k, noisePct)
				if len(driveCache(used, 11, 600)) == 0 {
					t.Fatal("first sequence observed nothing")
				}
				used.Reset()
				usedRng.Reseed(resetTestSeed)

				fresh, _ := resetTestCache(k, noisePct)
				for s := 0; s < resetTestSets; s++ {
					if got, want := used.DumpSet(s), fresh.DumpSet(s); got != want {
						t.Errorf("after Reset: %s, fresh: %s", got, want)
					}
				}
				if used.Stats() != fresh.Stats() {
					t.Errorf("after Reset stats %+v, fresh %+v", used.Stats(), fresh.Stats())
				}

				got, want := driveCache(used, 13, 600), driveCache(fresh, 13, 600)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("replay after Reset diverges from fresh:\n got %v\nwant %v", got, want)
				}
				for s := 0; s < resetTestSets; s++ {
					if got, want := used.DumpSet(s), fresh.DumpSet(s); got != want {
						t.Errorf("after replay: %s, fresh: %s", got, want)
					}
				}
			})
		}
	}
}

// TestDirtySetTracking pins the footprint bookkeeping itself: k distinct
// touched sets are listed exactly once each, read-only probes list
// nothing, and Reset empties the list.
func TestDirtySetTracking(t *testing.T) {
	c := NewCache("t", 64, 4, 1, PolicyQLRU, nil)
	c.Lookup(0x40)
	c.Contains(0x80)
	if len(c.dirty) != 0 {
		t.Fatalf("read-only probes listed sets %v", c.dirty)
	}
	const k = 5
	for i := 0; i < 3; i++ { // repeated fills of the same sets list each once
		for s := int64(0); s < k; s++ {
			c.Fill((int64(i)*64 + s*7) * 64)
		}
	}
	c.Touch(0)
	c.Invalidate(7 * 64)
	if len(c.dirty) != k {
		t.Fatalf("touched %d sets, listed %d: %v", k, len(c.dirty), c.dirty)
	}
	c.InvalidateAll()
	if len(c.dirty) != k {
		t.Fatalf("InvalidateAll changed the list to %v", c.dirty)
	}
	c.Reset()
	if len(c.dirty) != 0 {
		t.Fatalf("Reset left %v listed", c.dirty)
	}
	for s, d := range c.isDirty {
		if d {
			t.Fatalf("Reset left set %d marked", s)
		}
	}
}
