package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// fuzzWireSeeds returns a spread of valid frames for the batch fuzzer's
// corpus: empty, single-event, no-prev, and a larger mixed batch.
func fuzzWireSeeds() [][]byte {
	single := []trace.Event{{
		PID: 1, PC: 20, Dir: 2, Addr: 64,
		HasPrev: true, PrevPID: 3, PrevPC: 21, FutureReaders: 6,
	}}
	noPrev := []trace.Event{{PID: 0, Dir: 15, Addr: 4096, InvReaders: 0xffff, FutureReaders: 0x8000}}
	return [][]byte{
		serve.AppendWireBatch(nil, nil),
		serve.AppendWireBatch(nil, single),
		serve.AppendWireBatch(nil, noPrev),
		serve.AppendWireBatch(nil, wireTestEvents(12, 16)),
	}
}

// FuzzDecodeWireBatch drives the binary batch decoder with arbitrary
// bytes: it must never panic, whatever it accepts must be fully validated
// (the same invariants the JSON decoder enforces), and — the canonicality
// contract — re-encoding an accepted frame must reproduce the input byte
// for byte, so no two encodings of a batch are ever both accepted.
func FuzzDecodeWireBatch(f *testing.F) {
	for _, seed := range fuzzWireSeeds() {
		f.Add(seed, 16)
	}
	f.Add([]byte("COHWIRE1"), 16)
	f.Add([]byte("COHWIRE1\x01\x80\x00"), 16) // non-minimal count
	f.Add([]byte("COHWIRE1\x02\x00"), 16)     // reply kind
	f.Add([]byte("COHWIRE1\x01\xff\xff\x03"), 16)
	f.Add([]byte("no magic at all"), 8)
	f.Add([]byte{}, 64)
	f.Add(fuzzWireSeeds()[1], -1)
	f.Fuzz(func(t *testing.T, data []byte, nodes int) {
		evs, err := serve.DecodeWireBatch(data, nodes)
		if err != nil {
			return
		}
		if nodes <= 0 || nodes > bitmap.MaxNodes {
			t.Fatalf("accepted %d events for impossible node count %d", len(evs), nodes)
		}
		full := bitmap.Full(nodes)
		for i, ev := range evs {
			if ev.PID < 0 || ev.PID >= nodes || ev.Dir < 0 || ev.Dir >= nodes {
				t.Fatalf("event %d accepted with out-of-range pid=%d dir=%d (nodes=%d)", i, ev.PID, ev.Dir, nodes)
			}
			if ev.InvReaders&^full != 0 || ev.FutureReaders&^full != 0 {
				t.Fatalf("event %d accepted with bitmap beyond node %d", i, nodes-1)
			}
			if ev.HasPrev && (ev.PrevPID < 0 || ev.PrevPID >= nodes) {
				t.Fatalf("event %d accepted with out-of-range prev_pid=%d", i, ev.PrevPID)
			}
			if !ev.HasPrev && (ev.PrevPID != 0 || ev.PrevPC != 0) {
				t.Fatalf("event %d has prev fields set without has_prev", i)
			}
		}
		if again := serve.AppendWireBatch(nil, evs); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame is not canonical: re-encode differs\n in: %x\nout: %x", data, again)
		}
	})
}

// FuzzDecodeWireReply is the same contract for reply frames: total,
// validated, canonical.
func FuzzDecodeWireReply(f *testing.F) {
	f.Add(serve.AppendWireReply(nil, nil))
	f.Add(serve.AppendWireReply(nil, []bitmap.Bitmap{0, 1, 0x80, bitmap.Full(64)}))
	f.Add([]byte("COHWIRE1\x02\x02\x05"))     // short
	f.Add([]byte("COHWIRE1\x02\x01\x80\x01")) // non-minimal prediction
	f.Add([]byte("COHWIRE1\x01\x00"))         // batch kind
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		preds, err := serve.DecodeWireReply(data)
		if err != nil {
			return
		}
		if again := serve.AppendWireReply(nil, preds); !bytes.Equal(again, data) {
			t.Fatalf("accepted reply is not canonical: re-encode differs\n in: %x\nout: %x", data, again)
		}
	})
}

// FuzzWireJSONCross is the cross-transport equivalence property: any
// batch the wire decoder accepts, re-expressed as JSON, is accepted by
// the JSON decoder and yields the identical validated events — so the
// engine trains on exactly the same stream whichever transport carried
// it, and the offline-equivalence guarantee holds transport-free.
func FuzzWireJSONCross(f *testing.F) {
	for _, seed := range fuzzWireSeeds() {
		f.Add(seed, 16)
	}
	f.Add([]byte("COHWIRE1\x01\x01\x00\x00\x00\x00\x00\x00\x00"), 1)
	f.Fuzz(func(t *testing.T, data []byte, nodes int) {
		evs, err := serve.DecodeWireBatch(data, nodes)
		if err != nil {
			return
		}
		jsonBody, err := json.Marshal(evs)
		if err != nil {
			t.Fatalf("wire-accepted events fail to marshal: %v", err)
		}
		viaJSON, err := serve.DecodeEvents(jsonBody, nodes)
		if err != nil {
			t.Fatalf("JSON decoder rejects a wire-accepted batch: %v", err)
		}
		if len(viaJSON) != len(evs) {
			t.Fatalf("JSON path decoded %d events, wire path %d", len(viaJSON), len(evs))
		}
		for i := range evs {
			if viaJSON[i] != evs[i] {
				t.Fatalf("event %d differs across transports: wire %+v, json %+v", i, evs[i], viaJSON[i])
			}
		}
	})
}
