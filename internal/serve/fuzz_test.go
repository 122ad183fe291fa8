package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"cohpredict/internal/serve"
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
