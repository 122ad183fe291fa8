package cache

import (
	"math/rand"
	"testing"
)

func tiny() Config { return Config{SizeBytes: 512, LineBytes: 64, Assoc: 2} } // 4 sets

// validLines returns the number of lines currently valid: the occupancy
// the capacity tests check.
func validLines(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state() != Invalid {
			n++
		}
	}
	return n
}

func TestConfigSets(t *testing.T) {
	if got := tiny().Sets(); got != 4 {
		t.Fatalf("Sets = %d", got)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Assoc: 1},
		{SizeBytes: 512, LineBytes: 60, Assoc: 2},     // line not power of two
		{SizeBytes: 512 * 3, LineBytes: 64, Assoc: 2}, // 12 sets: not power of two
		{SizeBytes: 512, LineBytes: 2, Assoc: 2},      // no room for the state bits
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(tiny())
	if prev, _ := c.Access(0x1000, false); prev != Invalid {
		t.Fatalf("first access prev = %v", prev)
	}
	if prev, _ := c.Access(0x1000, false); prev != Shared {
		t.Fatalf("second access prev = %v", prev)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(tiny())
	c.Access(0x1000, false)
	if prev, _ := c.Access(0x103F, false); prev != Shared {
		t.Fatal("same-line access missed")
	}
	if prev, _ := c.Access(0x1040, false); prev != Invalid {
		t.Fatal("next-line access hit")
	}
}

func TestWriteStates(t *testing.T) {
	c := New(tiny())
	c.Access(0x40, true)
	if got := c.Lookup(0x40); got != Modified {
		t.Fatalf("state after store = %v", got)
	}
	// Store to a Shared line is an upgrade (counted as miss).
	c2 := New(tiny())
	c2.Access(0x40, false)
	prev, _ := c2.Access(0x40, true)
	if prev != Shared {
		t.Fatalf("upgrade prev = %v", prev)
	}
	if c2.Lookup(0x40) != Modified {
		t.Fatal("upgrade did not set Modified")
	}
	if c2.Misses != 2 { // cold miss + upgrade
		t.Fatalf("misses = %d", c2.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tiny()) // 4 sets, 2-way; set = (addr/64) % 4
	// Three lines mapping to set 0: blocks 0, 4, 8.
	for _, addr := range []uint64{0 * 64, 4 * 64} {
		if _, ev := c.Access(addr, false); ev != (Eviction{}) {
			t.Fatalf("fill of an invalid way evicted %+v", ev)
		}
	}
	c.Access(0*64, false) // touch block 0: block 4 is now LRU
	_, ev := c.Access(8*64, false)
	if ev.State == Invalid || ev.Addr != 4*64 {
		t.Fatalf("eviction = %+v, want block 4", ev)
	}
	if ev.Dirty() {
		t.Fatal("clean line reported dirty")
	}
	if c.Lookup(0*64) == Invalid {
		t.Fatal("MRU line evicted")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(tiny())
	c.Access(0*64, true) // dirty
	c.Access(4*64, false)
	_, ev := c.Access(8*64, false)
	if !ev.Dirty() || ev.Addr != 0 {
		t.Fatalf("eviction = %+v, want dirty block 0", ev)
	}
	if c.DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions = %d", c.DirtyEvictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(tiny())
	c.Access(0x80, true)
	if prev := c.Invalidate(0x80); prev != Modified {
		t.Fatalf("Invalidate prev = %v", prev)
	}
	if c.Lookup(0x80) != Invalid {
		t.Fatal("line still valid")
	}
	if prev := c.Invalidate(0x80); prev != Invalid {
		t.Fatal("double invalidate returned valid state")
	}
}

func TestDowngrade(t *testing.T) {
	c := New(tiny())
	c.Access(0x80, true)
	if prev := c.Downgrade(0x80); prev != Modified {
		t.Fatalf("Downgrade prev = %v", prev)
	}
	if c.Lookup(0x80) != Shared {
		t.Fatal("line not Shared after downgrade")
	}
	// Downgrading a Shared line is a no-op.
	if prev := c.Downgrade(0x80); prev != Shared {
		t.Fatal("second downgrade prev wrong")
	}
}

func TestValidLines(t *testing.T) {
	c := New(tiny())
	for i := 0; i < 8; i++ {
		c.Access(uint64(i)*64, false)
	}
	if got := validLines(c); got != 8 {
		t.Fatalf("valid lines = %d", got)
	}
}

func TestCapacityBound(t *testing.T) {
	cfg := tiny()
	c := New(cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		c.Access(uint64(rng.Intn(64))*64, rng.Intn(2) == 0)
	}
	maxLines := cfg.SizeBytes / cfg.LineBytes
	if got := validLines(c); got > maxLines {
		t.Fatalf("valid lines = %d > capacity %d", got, maxLines)
	}
}

func TestHierarchyOutcomes(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 256, LineBytes: 64, Assoc: 1},
		Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2},
	)
	if out, _ := h.Access(0x40, false); out != MissClean {
		t.Fatalf("cold load = %v", out)
	}
	if out, _ := h.Access(0x40, false); out != Hit {
		t.Fatalf("warm load = %v", out)
	}
	if out, _ := h.Access(0x40, true); out != Upgrade {
		t.Fatalf("store to shared = %v", out)
	}
	if out, _ := h.Access(0x40, true); out != Hit {
		t.Fatalf("store to owned = %v", out)
	}
}

func TestHierarchyInclusion(t *testing.T) {
	// L1 64B (1 line), L2 128B (2 lines, direct-mapped → 2 sets).
	h := NewHierarchy(
		Config{SizeBytes: 64, LineBytes: 64, Assoc: 1},
		Config{SizeBytes: 128, LineBytes: 64, Assoc: 1},
	)
	h.Access(0*64, false)
	h.Access(2*64, false) // maps to L2 set 0, evicts block 0 from L2
	if h.L1.Lookup(0) != Invalid {
		t.Fatal("inclusion violated: L1 holds line L2 evicted")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := NewHierarchy(tiny(), Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
	h.Access(0x100, true)
	if st := h.Invalidate(0x100); st != Modified {
		t.Fatalf("Invalidate = %v", st)
	}
	if h.L1.Lookup(0x100) != Invalid || h.L2.Lookup(0x100) != Invalid {
		t.Fatal("line still present")
	}
	if out, _ := h.Access(0x100, false); out != MissClean {
		t.Fatal("invalidated line still hits")
	}
}

func TestHierarchyDowngrade(t *testing.T) {
	h := NewHierarchy(tiny(), Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
	h.Access(0x100, true)
	h.Downgrade(0x100)
	if out, _ := h.Access(0x100, true); out != Upgrade {
		t.Fatalf("store after downgrade = %v", out)
	}
}

func TestHierarchyPanicsOnLineMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched line sizes accepted")
		}
	}()
	NewHierarchy(Config{SizeBytes: 512, LineBytes: 32, Assoc: 1},
		Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
}

func TestLineStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("LineState.String broken")
	}
	if LineState(99).String() == "" {
		t.Fatal("unknown state should render")
	}
}

func TestMarkExclusive(t *testing.T) {
	c := New(tiny())
	c.Access(0x40, false)
	c.MarkExclusive(0x40)
	if got := c.Lookup(0x40); got != Exclusive {
		t.Fatalf("state = %v", got)
	}
	// Only Shared lines promote: Modified stays Modified.
	c.Access(0x80, true)
	c.MarkExclusive(0x80)
	if got := c.Lookup(0x80); got != Modified {
		t.Fatalf("Modified line changed to %v", got)
	}
	// Absent lines are untouched.
	c.MarkExclusive(0x2000)
	if got := c.Lookup(0x2000); got != Invalid {
		t.Fatalf("absent line materialised as %v", got)
	}
}

func TestExclusiveSilentPromotion(t *testing.T) {
	c := New(tiny())
	c.Access(0x40, false)
	c.MarkExclusive(0x40)
	misses := c.Misses
	prev, _ := c.Access(0x40, true)
	if prev != Exclusive {
		t.Fatalf("prev = %v", prev)
	}
	if c.Lookup(0x40) != Modified {
		t.Fatal("E store did not promote to M")
	}
	if c.Misses != misses {
		t.Fatal("silent promotion counted as a miss")
	}
}

func TestExclusiveDowngradeAndEviction(t *testing.T) {
	c := New(tiny())
	c.Access(0x40, false)
	c.MarkExclusive(0x40)
	if prev := c.Downgrade(0x40); prev != Exclusive {
		t.Fatalf("Downgrade prev = %v", prev)
	}
	if c.Lookup(0x40) != Shared {
		t.Fatal("E line not downgraded to S")
	}
	// An unwritten Exclusive line evicts clean.
	c2 := New(tiny())
	c2.Access(0*64, false)
	c2.MarkExclusive(0 * 64)
	c2.Access(4*64, false)
	_, ev := c2.Access(8*64, false)
	if ev.State != Exclusive || ev.Dirty() {
		t.Fatalf("E eviction = %+v, want clean", ev)
	}
}

func TestHierarchyMESIFlow(t *testing.T) {
	h := NewHierarchy(tiny(), Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
	h.Access(0x40, false)
	h.MarkExclusive(0x40)
	out, _ := h.Access(0x40, true)
	if out != Hit {
		t.Fatalf("store to E line = %v, want silent Hit", out)
	}
	if st := h.Invalidate(0x40); st != Modified {
		t.Fatalf("state after silent promotion = %v", st)
	}
}
