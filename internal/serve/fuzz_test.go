package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// FuzzDecodeEventRequest drives the events-endpoint body decoder with
// arbitrary bytes: it must never panic, whatever it accepts must be
// fully validated (in-range pids, bitmaps confined to the machine), and
// it must accept no null in place of the batch or of an event.
func FuzzDecodeEventRequest(f *testing.F) {
	f.Add([]byte(`{"pid":0,"pc":20,"dir":0,"addr":4096,"inv_readers":6,"future_readers":6}`), 16)
	f.Add([]byte(`[{"pid":1,"pc":1,"dir":2,"addr":64,"future_readers":1},{"pid":3,"pc":9,"dir":0,"addr":128,"has_prev":true,"prev_pid":1,"prev_pc":1,"future_readers":2}]`), 4)
	f.Add([]byte(`[]`), 8)
	f.Add([]byte(`{}`), 2)
	for _, body := range wideNodeJSON {
		f.Add([]byte(body), 16)
	}
	f.Add([]byte(`{"pid":99,"dir":0}`), 16)
	f.Add([]byte(`{"unknown_field":1}`), 16)
	f.Add([]byte(`{"pid":0}[]`), 16) // trailing data
	f.Add([]byte(`[{"pid":0,"future_readers":18446744073709551615}]`), 16)
	f.Add([]byte(` `), 16)
	f.Add([]byte(`nul`), 16)
	f.Add([]byte(`null`), 16)
	f.Add([]byte(` null `), 16)
	f.Add([]byte(`[null]`), 16)
	f.Add([]byte(`[null,null]`), 16)
	f.Add([]byte(`[{},null]`), 16)
	f.Add([]byte(`[{} , null, {}]`), 16)
	f.Add([]byte{0xff, 0xfe, '{', '}'}, 16)
	f.Fuzz(func(t *testing.T, data []byte, nodes int) {
		evs, err := serve.DecodeEvents(data, nodes)
		if err != nil {
			return
		}
		// Accepted input must be internally consistent: validation ran on
		// every event against the stated machine size.
		if nodes <= 0 || nodes > 64 {
			t.Fatalf("accepted %d events for impossible node count %d", len(evs), nodes)
		}
		for i, ev := range evs {
			if int(ev.PID) >= nodes || int(ev.Dir) >= nodes {
				t.Fatalf("event %d accepted with out-of-range pid=%d dir=%d (nodes=%d)", i, ev.PID, ev.Dir, nodes)
			}
			full := uint64(1)<<uint(nodes) - 1
			if nodes == 64 {
				full = ^uint64(0)
			}
			if uint64(ev.InvReaders)&^full != 0 || uint64(ev.FutureReaders)&^full != 0 {
				t.Fatalf("event %d accepted with bitmap beyond node %d", i, nodes-1)
			}
			if ev.HasPrev && int(ev.PrevPID) >= nodes {
				t.Fatalf("event %d accepted with out-of-range prev_pid=%d", i, ev.PrevPID)
			}
			if !ev.HasPrev && (ev.PrevPID != 0 || ev.PrevPC != 0) {
				t.Fatalf("event %d has prev fields set without has_prev", i)
			}
		}
		// Round-trip: accepted events must survive re-encoding, since the
		// service replays decoded events verbatim into the engine.
		if _, err := json.Marshal(evs); err != nil {
			t.Fatalf("accepted events fail to re-encode: %v", err)
		}
		var elems []json.RawMessage
		if json.Unmarshal(data, &elems) != nil || elems == nil { // an object, or null
			elems = []json.RawMessage{data}
		}
		for i, e := range elems {
			if string(bytes.TrimSpace(e)) == "null" {
				t.Fatalf("accepted a null as event %d of %q", i, data)
			}
		}
	})
}

// FuzzRouteKey checks the sharding soundness invariants over arbitrary
// events and shard counts: routing is a pure function of the event (same
// event → same shard, always in range), and under forwarded update the
// previous-writer key co-locates with the current key — the property the
// offline-equivalence guarantee rests on.
func FuzzRouteKey(f *testing.F) {
	f.Add(uint8(0), 1, uint64(0x40), 0, uint64(0), 2, uint64(0x80), 4)
	f.Add(uint8(3), 5, uint64(0xdeadbeef), 12, uint64(0x1234), 0, uint64(0), 8)
	f.Add(uint8(6), 15, uint64(1)<<40, 3, uint64(99), 15, uint64(7), 64)
	f.Add(uint8(2), 0, uint64(0), 0, uint64(0), 0, uint64(0), -3)
	schemes := mustSchemes(f, []string{
		"last(dir+add8)1",
		"union(pid+pc8)2[forwarded]",
		"inter(pid+dir+add10)4[forwarded]",
		"pas(add12)2[forwarded]",
		"last()1[ordered]",
		"union(pc4+add4)2[forwarded]",
		"sticky(add8)1",
	})
	m := core.Machine{Nodes: 16, LineBytes: 64}
	f.Fuzz(func(t *testing.T, which uint8, pid int, pc uint64, dir int, addr uint64,
		prevPID int, prevPC uint64, shards int) {
		sc := schemes[int(which)%len(schemes)]
		r := serve.NewRouter(sc, m, shards)
		if r.Shards() < 1 {
			t.Fatalf("router has %d shards", r.Shards())
		}
		ev := trace.Event{
			PID: clampNode(pid), PC: pc, Dir: clampNode(dir), Addr: addr,
			HasPrev: true, PrevPID: clampNode(prevPID), PrevPC: prevPC,
		}
		got := r.RouteEvent(&ev)
		if got < 0 || got >= r.Shards() {
			t.Fatalf("route %d out of range [0,%d)", got, r.Shards())
		}
		if again := r.RouteEvent(&ev); again != got {
			t.Fatalf("routing not deterministic: %d then %d", got, again)
		}
		// The forwarded-update co-location invariant: the key trained on a
		// forward (previous writer's pid/pc, same dir/addr) must live on the
		// same shard as the key predicted from.
		k := sc.Index.Keyer(m)
		curKey := k.Key(ev.PID, ev.PC, ev.Dir, ev.Addr)
		prevKey := k.Key(ev.PrevPID, ev.PrevPC, ev.Dir, ev.Addr)
		if r.Route(prevKey) != r.Route(curKey) {
			t.Fatalf("prev key shard %d != cur key shard %d (scheme %s)",
				r.Route(prevKey), r.Route(curKey), sc)
		}
		if r.Route(curKey) != got {
			t.Fatalf("RouteEvent %d disagrees with Route(curKey) %d", got, r.Route(curKey))
		}
		// Equal full keys must always co-locate regardless of which fields
		// produced them.
		ev2 := ev
		ev2.Addr = addr // identical event: trivially equal key
		if r.RouteEvent(&ev2) != got {
			t.Fatal("equal keys routed to different shards")
		}
	})
}

func clampNode(v int) uint8 {
	if v < 0 {
		v = -v
	}
	return uint8(v % 16)
}

func mustSchemes(f *testing.F, specs []string) []core.Scheme {
	out := make([]core.Scheme, len(specs))
	for i, s := range specs {
		sc, err := core.ParseScheme(s)
		if err != nil {
			f.Fatal(err)
		}
		out[i] = sc
	}
	return out
}
