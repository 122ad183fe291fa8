package serve_test

import (
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// TestRouteMaskLayout pins the mask to Keyer.Key's packing order
// (addr lowest, then pc, then dir, then pid): the mask must select
// exactly the addr bits plus the dir bits above the pc gap.
func TestRouteMaskLayout(t *testing.T) {
	m := core.Machine{Nodes: 16, LineBytes: 64} // 4 dir bits
	cases := []struct {
		idx  core.IndexSpec
		want uint64
	}{
		{core.IndexSpec{AddrBits: 8}, 0xff},
		{core.IndexSpec{AddrBits: 8, UseDir: true}, 0xff | 0xf<<8},
		{core.IndexSpec{AddrBits: 8, PCBits: 4, UseDir: true}, 0xff | 0xf<<12},
		{core.IndexSpec{PCBits: 8, UseDir: true}, 0xf << 8},
		{core.IndexSpec{UsePID: true, PCBits: 8}, 0},
		{core.IndexSpec{}, 0},
	}
	for _, tc := range cases {
		if got := serve.RouteMask(tc.idx, m); got != tc.want {
			t.Errorf("RouteMask(%+v) = %#x, want %#x", tc.idx, got, tc.want)
		}
	}
}

func parseScheme(t *testing.T, s string) core.Scheme {
	t.Helper()
	sc, err := core.ParseScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRouterClamps checks the constructor's degenerate-input handling.
func TestRouterClamps(t *testing.T) {
	m := core.Machine{Nodes: 16, LineBytes: 64}
	if got := serve.NewRouter(parseScheme(t, "last(add8)1"), m, 0).Shards(); got != 1 {
		t.Fatalf("zero shards clamped to %d, want 1", got)
	}
	if got := serve.NewRouter(parseScheme(t, "last(add8)1"), m, -5).Shards(); got != 1 {
		t.Fatalf("negative shards clamped to %d, want 1", got)
	}
	// Sticky-spatial prediction reads addr±1 neighbour entries, so a key
	// partition would split its reads: the router must refuse to shard it.
	if got := serve.NewRouter(parseScheme(t, "sticky(add8)1"), m, 8).Shards(); got != 1 {
		t.Fatalf("sticky scheme sharded %d ways, want 1", got)
	}
}

// TestRouterSpreadsLoad checks that a varied address stream actually uses
// the whole pool — the point of sharding — rather than collapsing onto a
// few shards.
func TestRouterSpreadsLoad(t *testing.T) {
	m := core.Machine{Nodes: 16, LineBytes: 64}
	r := serve.NewRouter(parseScheme(t, "union(dir+add10)2"), m, 8)
	hits := make([]int, r.Shards())
	for i := 0; i < 4096; i++ {
		ev := trace.Event{PID: uint8(i % 16), Dir: uint8((i / 16) % 16), Addr: uint64(i) * 64}
		hits[r.RouteEvent(&ev)]++
	}
	for sh, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d received no events: %v", sh, hits)
		}
	}
}

// TestRouterPinsLineToShard checks the other direction: all events on one
// directory line (the unit of predictor state for an addr-indexed scheme)
// land on one shard regardless of writer or pc — the per-entry serial
// order guarantee.
func TestRouterPinsLineToShard(t *testing.T) {
	m := core.Machine{Nodes: 16, LineBytes: 64}
	r := serve.NewRouter(parseScheme(t, "union(dir+add10)2"), m, 8)
	base := trace.Event{PID: 0, PC: 20, Dir: 3, Addr: 0x12340}
	want := r.RouteEvent(&base)
	for pid := uint8(0); pid < 16; pid++ {
		for pc := uint64(0); pc < 8; pc++ {
			ev := base
			ev.PID, ev.PC = pid, 100+pc
			if got := r.RouteEvent(&ev); got != want {
				t.Fatalf("same line routed to shard %d and %d", want, got)
			}
		}
	}
}
