package eval

import (
	"math/rand"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

var m16 = core.Machine{Nodes: 16, LineBytes: 64}

func mustParse(t *testing.T, s string) core.Scheme {
	t.Helper()
	sc, err := core.ParseScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// chainTrace builds a well-formed random trace: per block, the InvReaders
// of each event equal the FutureReaders of the previous event on that
// block, and the previous-writer fields chain correctly — exactly what the
// directory guarantees.
func chainTrace(nodes, blocks, events int, seed int64) *trace.Trace {
	return makeChainTrace(nodes, blocks, events, seed, true)
}

// coldChainTrace is chainTrace without the seeded cold readers: first
// writes carry no feedback under any update mechanism.
func coldChainTrace(nodes, blocks, events int, seed int64) *trace.Trace {
	return makeChainTrace(nodes, blocks, events, seed, false)
}

func makeChainTrace(nodes, blocks, events int, seed int64, seedReaders bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	type epoch struct {
		writerPID int
		writerPC  uint64
		readers   bitmap.Bitmap
		open      int
		hasOwner  bool
	}
	state := make([]epoch, blocks)
	for i := range state {
		state[i].open = -1
		if seedReaders {
			// Seed one cold reader per block so every event
			// carries feedback (no-feedback cold stores make
			// predictions depend on stale per-index state, which
			// is exactly the warm-up noise the identity tests
			// must exclude).
			state[i].readers = bitmap.New(rng.Intn(nodes))
		}
	}
	tr := &trace.Trace{Nodes: nodes}
	for len(tr.Events) < events {
		b := rng.Intn(blocks)
		pid := rng.Intn(nodes)
		if rng.Intn(3) > 0 { // read
			if state[b].hasOwner && pid != state[b].writerPID {
				state[b].readers = state[b].readers.Set(pid)
			}
			continue
		}
		st := &state[b]
		inv := st.readers
		if st.hasOwner {
			inv = inv.Clear(st.writerPID)
		}
		if st.open >= 0 {
			tr.Events[st.open].FutureReaders = inv
		}
		e := trace.Event{
			PID: uint8(pid), PC: uint64(16 + rng.Intn(8)), Dir: uint8(b % nodes),
			Addr: uint64(b) * 64, InvReaders: inv,
		}
		if st.hasOwner {
			e.HasPrev = true
			e.PrevPID = uint8(st.writerPID)
			e.PrevPC = st.writerPC
		}
		tr.Events = append(tr.Events, e)
		st.hasOwner = true
		st.writerPID = pid
		st.writerPC = e.PC
		st.readers = bitmap.Empty
		st.open = len(tr.Events) - 1
	}
	for i := range state {
		st := &state[i]
		if st.open >= 0 {
			inv := st.readers
			if st.hasOwner {
				inv = inv.Clear(st.writerPID)
			}
			tr.Events[st.open].FutureReaders = inv
		}
	}
	return tr
}

func confusionOf(t *testing.T, scheme string, tr *trace.Trace) Result {
	t.Helper()
	return Evaluate(mustParse(t, scheme), m16, tr)
}

// TestDirectDepth1LastIsIndexInvariant reproduces the paper's Table 7
// identity: under direct update, every depth-1 last scheme predicts exactly
// the invalidated-reader bitmap of the current event, so indexing is
// irrelevant — baseline-last, Kaxiras-last and Lai-last coincide.
func TestDirectDepth1LastIsIndexInvariant(t *testing.T) {
	tr := chainTrace(16, 40, 3000, 7)
	base := confusionOf(t, "last()1", tr).Confusion
	for _, s := range []string{
		"last(pid+pc8)1", "last(pid+add8)1", "last(dir+add14)1",
		"last(pid+pc4+dir+add4)1", "last(pc16)1",
	} {
		got := confusionOf(t, s, tr).Confusion
		if got != base {
			t.Errorf("%s = %+v, want baseline %+v", s, got, base)
		}
	}
}

// TestAddressSchemesUpdateInvariant reproduces the paper's §3.4 claim: for
// pure address-based schemes (dir/addr indexing only), direct and forwarded
// update are equivalent.
func TestAddressSchemesUpdateInvariant(t *testing.T) {
	tr := chainTrace(16, 64, 4000, 9)
	for _, base := range []string{
		"union(dir+add14)4", "inter(dir+add6)2", "last(add8)1", "union(dir)2", "pas(dir+add6)2",
	} {
		d := confusionOf(t, base+"[direct]", tr).Confusion
		f := confusionOf(t, base+"[forwarded]", tr).Confusion
		if d != f {
			t.Errorf("%s: direct %+v != forwarded %+v", base, d, f)
		}
	}
}

// TestOrderedEqualsDirectWithFullAddr: with collision-free addr indexing an
// entry serves exactly one block, so direct update (train with the block's
// invalidated readers on arrival) and ordered update (train retroactively
// with each event's future readers) see identical histories.
func TestOrderedEqualsDirectWithFullAddr(t *testing.T) {
	// 16 blocks, 16 addr bits: no aliasing; no cold readers, so the
	// first write of each block trains neither mechanism and the
	// histories align exactly from then on.
	tr := coldChainTrace(16, 16, 3000, 11)
	for _, base := range []string{"union(add16)4", "inter(add16)2", "last(add16)1"} {
		d := confusionOf(t, base+"[direct]", tr).Confusion
		o := confusionOf(t, base+"[ordered]", tr).Confusion
		if d != o {
			t.Errorf("%s: direct %+v != ordered %+v", base, d, o)
		}
	}
}

// TestOrderedDiffersUnderAliasing documents why ordered update is an
// oracle: with truncated addresses, entries interleave blocks and the
// update timing matters.
func TestOrderedDiffersUnderAliasing(t *testing.T) {
	tr := chainTrace(16, 64, 4000, 13)
	d := confusionOf(t, "union(add2)4[direct]", tr).Confusion
	o := confusionOf(t, "union(add2)4[ordered]", tr).Confusion
	if d == o {
		t.Skip("aliased direct and ordered happened to coincide (unlikely)")
	}
}

func TestPredictionNeverIncludesWriter(t *testing.T) {
	tr := chainTrace(16, 32, 2000, 17)
	eng := NewEngine(mustParse(t, "union(dir+add4)4"), m16)
	for _, ev := range tr.Events {
		if pred := eng.Step(ev); pred.Has(int(ev.PID)) {
			t.Fatal("prediction includes the writer itself")
		}
	}
}

func TestDecisionAccounting(t *testing.T) {
	tr := chainTrace(16, 32, 1000, 19)
	r := confusionOf(t, "last()1", tr)
	if got := r.Confusion.Decisions(); got != uint64(len(tr.Events)*16) {
		t.Fatalf("decisions = %d, want events×16 = %d", got, len(tr.Events)*16)
	}
}

func TestPrevalenceIsSchemeIndependent(t *testing.T) {
	tr := chainTrace(16, 32, 2000, 23)
	prev := confusionOf(t, "last()1", tr).Confusion.Prevalence()
	for _, s := range []string{"union(dir+add8)4", "inter(pid+pc8)2[forwarded]", "pas(pid)2[ordered]"} {
		if got := confusionOf(t, s, tr).Confusion.Prevalence(); got != prev {
			t.Errorf("%s prevalence %v != %v", s, got, prev)
		}
	}
}

// stableTrace builds the canonical static producer-consumer pattern: one
// writer, a fixed reader set, every epoch identical.
func stableTrace(events int) *trace.Trace {
	readers := bitmap.New(2, 5, 9)
	tr := &trace.Trace{Nodes: 16}
	for i := 0; i < events; i++ {
		e := trace.Event{
			PID: 0, PC: 20, Dir: 3, Addr: 0x1000,
			InvReaders:    readers,
			FutureReaders: readers,
		}
		if i > 0 {
			e.HasPrev, e.PrevPID, e.PrevPC = true, 0, 20
		} else {
			e.InvReaders = bitmap.Empty
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestStableProducerConsumerIsPerfectlyPredicted: after warm-up, every
// scheme family must predict a static producer-consumer pattern with
// PVP = 1, and all its sharing captured (the pattern the paper expects
// prediction to excel at).
func TestStableProducerConsumerIsPerfectlyPredicted(t *testing.T) {
	tr := stableTrace(100)
	for _, s := range []string{
		"last()1", "union(add8)4", "inter(pid+pc8)4", "inter(pid+pc8)4[forwarded]",
		"union(add8)4[ordered]", "pas(pid)2",
	} {
		c := confusionOf(t, s, tr).Confusion
		if c.PVP() != 1 {
			t.Errorf("%s PVP = %v, want 1", s, c.PVP())
		}
		if c.Sensitivity() < 0.9 {
			t.Errorf("%s sensitivity = %v, want ≥ 0.9", s, c.Sensitivity())
		}
	}
}

// TestMigratoryNeedsForwardedUpdate reproduces the Kaxiras–Goodman insight
// the taxonomy explains: when two writers alternate and each reads before
// writing (migratory sharing), direct update trains a writer's entry with
// its own identity (useless — a node never forwards to itself), while
// forwarded update trains the *previous* writer's entry with the next
// consumer, which is exactly right.
func TestMigratoryNeedsForwardedUpdate(t *testing.T) {
	tr := &trace.Trace{Nodes: 16}
	for i := 0; i < 200; i++ {
		cur := uint8(i % 2)        // writers 0 and 1 alternate
		next := uint8((i + 1) % 2) // the next writer is the only future reader
		e := trace.Event{
			PID: cur, PC: uint64(30 + cur), Dir: 0, Addr: 0x40,
			InvReaders:    bitmap.New(int(cur)), // the writer read before writing
			FutureReaders: bitmap.New(int(next)),
		}
		if i > 0 {
			e.HasPrev, e.PrevPID, e.PrevPC = true, next, uint64(30+next)
		}
		tr.Events = append(tr.Events, e)
	}
	direct := confusionOf(t, "last(pid+pc8)1[direct]", tr).Confusion
	forwarded := confusionOf(t, "last(pid+pc8)1[forwarded]", tr).Confusion
	if direct.Sensitivity() != 0 {
		t.Errorf("direct sensitivity = %v, want 0 (self-prediction masked)", direct.Sensitivity())
	}
	if forwarded.Sensitivity() < 0.95 {
		t.Errorf("forwarded sensitivity = %v, want ≈ 1", forwarded.Sensitivity())
	}
	if forwarded.PVP() < 0.95 {
		t.Errorf("forwarded PVP = %v, want ≈ 1", forwarded.PVP())
	}
}

// TestEngineContainmentProperty: at every event of a random trace, the
// depth-4 intersection prediction is contained in last's, which is
// contained in the depth-4 union's — the engine-level version of the
// entry-level monotonicity, surviving masking and update plumbing.
func TestEngineContainmentProperty(t *testing.T) {
	tr := chainTrace(16, 32, 3000, 29)
	for _, mode := range []string{"[direct]", "[forwarded]", "[ordered]"} {
		inter := NewEngine(mustParse(t, "inter(dir+add6)4"+mode), m16)
		last := NewEngine(mustParse(t, "last(dir+add6)1"+mode), m16)
		union := NewEngine(mustParse(t, "union(dir+add6)4"+mode), m16)
		for i, ev := range tr.Events {
			pi := inter.Step(ev)
			pl := last.Step(ev)
			pu := union.Step(ev)
			if !pi.Minus(pl).IsEmpty() || !pl.Minus(pu).IsEmpty() {
				t.Fatalf("%s event %d: containment broken inter=%v last=%v union=%v",
					mode, i, pi, pl, pu)
			}
		}
	}
}

// TestEngineAccessors: Run scores every event of the trace and trains
// the one entry its stable writer touches.
func TestEngineAccessors(t *testing.T) {
	tr := stableTrace(10)
	eng := NewEngine(mustParse(t, "inter(pid+pc8)2"), m16)
	eng.Run(tr)
	if eng.events() != 10 {
		t.Errorf("events = %d", eng.events())
	}
	if eng.table.Entries() != 1 {
		t.Errorf("table entries = %d", eng.table.Entries())
	}
}

func TestNewEnginePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid scheme accepted")
		}
	}()
	NewEngine(core.Scheme{Fn: core.Inter, Depth: 0}, m16)
}

// TestColdStoreDoesNotTrainDirect: an event with no previous epoch and no
// readers carries no feedback; the predictor state must not change.
func TestColdStoreDoesNotTrainDirect(t *testing.T) {
	eng := NewEngine(mustParse(t, "last(add8)1"), m16)
	cold := trace.Event{PID: 0, PC: 16, Dir: 0, Addr: 0x40}
	eng.Step(cold)
	if eng.table.Entries() != 0 {
		t.Fatal("cold store trained the predictor")
	}
	// With readers it is an invalidation and must train.
	eng.Step(trace.Event{PID: 1, PC: 16, Dir: 0, Addr: 0x40, InvReaders: bitmap.New(3)})
	if eng.table.Entries() != 1 {
		t.Fatal("invalidation with readers did not train")
	}
}

// TestForwardedDropsOrphanFeedback: pid/pc-indexed schemes cannot route
// feedback without a previous writer.
func TestForwardedDropsOrphanFeedback(t *testing.T) {
	eng := NewEngine(mustParse(t, "last(pid+pc8)1[forwarded]"), m16)
	eng.Step(trace.Event{PID: 1, PC: 20, Dir: 0, Addr: 0x40, InvReaders: bitmap.New(3)})
	if eng.table.Entries() != 0 {
		t.Fatal("orphan feedback trained a pid/pc-indexed predictor")
	}
}
