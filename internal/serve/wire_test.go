package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// doRaw issues a request with explicit headers and returns the status,
// response headers, and raw body — the negotiation tests need to see the
// wire bytes the typed helpers would decode away.
func (c *client) doRaw(method, path string, body []byte, hdr map[string]string) (int, http.Header, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// wireTestEvents is hammerEvents with the corners the generator skips:
// events without a previous writer, maximal bitmaps, and zero values.
func wireTestEvents(n, nodes int) []trace.Event {
	evs := hammerEvents(n, nodes)
	full := bitmap.Full(nodes)
	for i := range evs {
		switch i % 5 {
		case 1:
			evs[i].HasPrev = false
			evs[i].PrevPID = 0
			evs[i].PrevPC = 0
		case 2:
			evs[i].InvReaders = full
			evs[i].FutureReaders = full
		case 3:
			evs[i].PC = 0
			evs[i].Addr = 0
			evs[i].FutureReaders = 0
		}
	}
	return evs
}

// TestWireBatchRoundTrip pins the codec's canonicality contract in the
// encode→decode direction: decoding an encoded batch reproduces every
// event exactly, and re-encoding the decoded batch reproduces the frame
// byte for byte.
func TestWireBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		evs := wireTestEvents(n, 16)
		frame := serve.AppendWireBatch(nil, evs)

		if !serve.IsWireFrame(frame) {
			t.Fatalf("n=%d: encoder output not recognized as a wire frame", n)
		}

		dec, err := serve.DecodeWireBatch(frame, 16)
		if err != nil {
			t.Fatalf("n=%d: decoding own encoding: %v", n, err)
		}
		if len(dec) != len(evs) {
			t.Fatalf("n=%d: decoded %d events", n, len(dec))
		}
		for i := range evs {
			if dec[i] != evs[i] {
				t.Fatalf("n=%d: event %d: decoded %+v != original %+v", n, i, dec[i], evs[i])
			}
		}
		if again := serve.AppendWireBatch(nil, dec); !bytes.Equal(again, frame) {
			t.Fatalf("n=%d: re-encoding decoded batch changed the bytes", n)
		}
	}
}

// TestWireReplyRoundTrip is the same contract for the reply frame.
func TestWireReplyRoundTrip(t *testing.T) {
	preds := []bitmap.Bitmap{0, 1, 0x80, bitmap.Full(16), bitmap.Full(64), 42}
	frame := serve.AppendWireReply(nil, preds)
	dec, err := serve.DecodeWireReply(frame)
	if err != nil {
		t.Fatalf("decoding own encoding: %v", err)
	}
	if len(dec) != len(preds) {
		t.Fatalf("decoded %d predictions, want %d", len(dec), len(preds))
	}
	for i := range preds {
		if dec[i] != preds[i] {
			t.Fatalf("prediction %d: %#x != %#x", i, dec[i], preds[i])
		}
	}
	if again := serve.AppendWireReply(nil, dec); !bytes.Equal(again, frame) {
		t.Fatal("re-encoding decoded reply changed the bytes")
	}

	empty := serve.AppendWireReply(nil, nil)
	if dec, err := serve.DecodeWireReply(empty); err != nil || len(dec) != 0 {
		t.Fatalf("empty reply: %v, %d predictions", err, len(dec))
	}
}

// TestWireDecodeRejects drives the decoders through every failure mode:
// each must return an error (never panic, never accept), so only the one
// canonical encoding of any batch is ever accepted.
func TestWireDecodeRejects(t *testing.T) {
	// A valid single-event frame to corrupt: pid=1 pc=20 dir=2 addr=64
	// inv=0 has_prev=1 prev_pid=3 prev_pc=21 future=6.
	valid := serve.AppendWireBatch(nil, []trace.Event{{
		PID: 1, PC: 20, Dir: 2, Addr: 64,
		HasPrev: true, PrevPID: 3, PrevPC: 21, FutureReaders: 6,
	}})
	if _, err := serve.DecodeWireBatch(valid, 16); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}

	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte("COHWIRE2\x01\x00")},
		{"magic-only", []byte("COHWIRE1")},
		{"reply-kind-to-batch-decoder", []byte("COHWIRE1\x02\x00")},
		{"unknown-kind", []byte("COHWIRE1\x07\x00")},
		{"non-minimal-count", []byte("COHWIRE1\x01\x80\x00")},
		{"count-exceeds-input", []byte("COHWIRE1\x01\x05\x00")},
		{"truncated-event", valid[:len(valid)-1]},
		{"trailing-byte", append(append([]byte{}, valid...), 0)},
		{"non-boolean-has-prev", []byte("COHWIRE1\x01\x01\x01\x14\x02\x40\x00\x02\x03\x15\x06\x00")},
		{"pid-out-of-range", []byte("COHWIRE1\x01\x01\x7f\x14\x02\x40\x00\x00\x06")},
		{"prev-pid-out-of-range", []byte("COHWIRE1\x01\x01\x01\x14\x02\x40\x00\x01\x7f\x15\x06")},
		{"bitmap-beyond-machine", []byte("COHWIRE1\x01\x01\x01\x14\x02\x40\x80\x80\x04\x00\x06")},
	}
	for _, tc := range cases {
		if _, err := serve.DecodeWireBatch(tc.frame, 16); err == nil {
			t.Errorf("%s: batch decoder accepted a corrupt frame", tc.name)
		}
	}
	if _, err := serve.DecodeWireBatch(valid, 0); err == nil {
		t.Error("batch decoder accepted an impossible node count")
	}
	if _, err := serve.DecodeWireReply(valid); err == nil {
		t.Error("reply decoder accepted a batch frame")
	}
	if _, err := serve.DecodeWireReply([]byte("COHWIRE1\x02\x02\x05")); err == nil {
		t.Error("reply decoder accepted a short reply")
	}
}

// TestWireNegotiation pins the HTTP contract: Content-Type selects the
// request decoder (unknown types draw a 415), Accept selects the reply
// encoder, and the two transports return identical predictions for
// identical batches.
func TestWireNegotiation(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	evs := wireTestEvents(200, 16)
	jsonBody, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	wireBody := serve.AppendWireBatch(nil, evs)

	newSess := func() string {
		return c.createSession(serve.CreateSessionRequest{
			Scheme: "union(dir+add8)2[forwarded]", Shards: 2,
		}).ID
	}

	// Unknown content types are refused with 415 and a JSON error envelope.
	id := newSess()
	code, hdr, body := c.doRaw("POST", "/v1/sessions/"+id+"/events", jsonBody,
		map[string]string{"Content-Type": "application/x-protobuf"})
	if code != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown content type: status %d, want 415", code)
	}
	var envelope serve.ErrorResponse
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("415 body is not a JSON error envelope: %q", body)
	}
	_ = hdr

	// JSON ground truth for the batch.
	var jsonResp serve.EventsResponse
	if code := c.do("POST", "/v1/sessions/"+id+"/events", jsonBody, &jsonResp); code != http.StatusOK {
		t.Fatalf("json post: status %d", code)
	}

	// Binary request (with parameters on the media type) → binary reply.
	id2 := newSess()
	code, hdr, body = c.doRaw("POST", "/v1/sessions/"+id2+"/events", wireBody,
		map[string]string{"Content-Type": serve.ContentTypeWire + "; v=1"})
	if code != http.StatusOK {
		t.Fatalf("wire post: status %d: %s", code, body)
	}
	if got := hdr.Get("Content-Type"); got != serve.ContentTypeWire {
		t.Fatalf("wire reply content type %q", got)
	}
	preds, err := serve.DecodeWireReply(body)
	if err != nil {
		t.Fatalf("decoding wire reply: %v", err)
	}
	if len(preds) != len(jsonResp.Predictions) {
		t.Fatalf("wire reply has %d predictions, JSON had %d", len(preds), len(jsonResp.Predictions))
	}
	for i := range preds {
		if uint64(preds[i]) != jsonResp.Predictions[i] {
			t.Fatalf("prediction %d: wire %#x != json %#x", i, preds[i], jsonResp.Predictions[i])
		}
	}

	// JSON request asking for a binary reply gets one, and it matches.
	id3 := newSess()
	code, hdr, body = c.doRaw("POST", "/v1/sessions/"+id3+"/events", jsonBody,
		map[string]string{"Content-Type": "application/json", "Accept": serve.ContentTypeWire})
	if code != http.StatusOK || hdr.Get("Content-Type") != serve.ContentTypeWire {
		t.Fatalf("json-in/wire-out: status %d, content type %q", code, hdr.Get("Content-Type"))
	}
	preds, err = serve.DecodeWireReply(body)
	if err != nil {
		t.Fatalf("decoding json-in/wire-out reply: %v", err)
	}
	for i := range preds {
		if uint64(preds[i]) != jsonResp.Predictions[i] {
			t.Fatalf("json-in/wire-out prediction %d differs", i)
		}
	}

	// A corrupt wire body is a 400 with the usual JSON envelope.
	code, _, body = c.doRaw("POST", "/v1/sessions/"+id3+"/events", wireBody[:len(wireBody)-2],
		map[string]string{"Content-Type": serve.ContentTypeWire})
	if code != http.StatusBadRequest {
		t.Fatalf("corrupt wire body: status %d, want 400", code)
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("400 body is not a JSON error envelope: %q", body)
	}

	// Keyed binary posts replay from the idempotency cache like JSON ones.
	id4 := newSess()
	h := map[string]string{"Content-Type": serve.ContentTypeWire, "Idempotency-Key": "wire-key-1"}
	_, _, first := c.doRaw("POST", "/v1/sessions/"+id4+"/events", wireBody, h)
	_, _, replay := c.doRaw("POST", "/v1/sessions/"+id4+"/events", wireBody, h)
	if !bytes.Equal(first, replay) {
		t.Fatal("keyed wire replay returned different bytes")
	}
}

// TestWireOfflineEquivalence is the binary twin of TestOfflineEquivalence:
// a trace replayed as COHWIRE1 frames returns, per event, exactly the
// bitmap eval.Engine.Step produces — with sessions created at 1, 2 and 8
// shards, counts the server accepts and ignores — and the session's
// confusion counts match eval.Evaluate.
func TestWireOfflineEquivalence(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	m := core.Machine{Nodes: 16, LineBytes: 64}

	for _, schemeStr := range []string{"union(dir+add8)2[forwarded]", "last(dir+add8)1"} {
		sc, err := core.ParseScheme(schemeStr)
		if err != nil {
			t.Fatal(err)
		}
		eng := eval.NewEngine(sc, m)
		wantPreds := make([]uint64, len(tr.Events))
		for i, ev := range tr.Events {
			wantPreds[i] = uint64(eng.Step(ev))
		}
		wantConf := eval.Evaluate(sc, m, tr).Confusion

		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", schemeStr, shards), func(t *testing.T) {
				srv := serve.NewServer(serve.Options{})
				defer srv.Shutdown()
				c, closeTS := newClient(t, srv)
				defer closeTS()
				sess := c.createSession(serve.CreateSessionRequest{
					Scheme: schemeStr, Nodes: 16, LineBytes: 64, Shards: shards,
				})

				const chunk = 173
				got := make([]uint64, 0, len(tr.Events))
				for lo := 0; lo < len(tr.Events); lo += chunk {
					hi := lo + chunk
					if hi > len(tr.Events) {
						hi = len(tr.Events)
					}
					frame := serve.AppendWireBatch(nil, tr.Events[lo:hi])
					code, _, body := c.doRaw("POST", "/v1/sessions/"+sess.ID+"/events", frame,
						map[string]string{"Content-Type": serve.ContentTypeWire})
					if code != http.StatusOK {
						t.Fatalf("wire post at %d: status %d: %s", lo, code, body)
					}
					preds, err := serve.DecodeWireReply(body)
					if err != nil {
						t.Fatalf("decoding reply at %d: %v", lo, err)
					}
					for _, p := range preds {
						got = append(got, uint64(p))
					}
				}

				for i := range wantPreds {
					if got[i] != wantPreds[i] {
						t.Fatalf("event %d: wire-served %#x != offline %#x", i, got[i], wantPreds[i])
					}
				}
				st := c.stats(sess.ID)
				if st.TP != wantConf.TP || st.FP != wantConf.FP ||
					st.TN != wantConf.TN || st.FN != wantConf.FN {
					t.Fatalf("confusion mismatch: wire {%d %d %d %d}, offline {%d %d %d %d}",
						st.TP, st.FP, st.TN, st.FN,
						wantConf.TP, wantConf.FP, wantConf.TN, wantConf.FN)
				}
			})
		}
	}
}

// TestAppendWireBatchAllocatesOnce: the client encodes each post with
// AppendWireBatch(nil, evs), which sizes the frame before it writes, so
// the frame is its one allocation.
func TestAppendWireBatchAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("a race build allocates slices.Grow's zeroed extension separately")
	}
	evs := wireTestEvents(512, 16)
	if got := testing.AllocsPerRun(100, func() { _ = serve.AppendWireBatch(nil, evs) }); got != 1 {
		t.Fatalf("AppendWireBatch(nil, evs) allocates %.1f times per call; want 1", got)
	}
}

// TestWireKernelsAllocFree pins the allocation-free claim at the kernel
// level: once destination buffers have warmed to the working size, the
// encoders and decoders allocate nothing per call. The HTTP layer's pool
// rests on exactly this property.
func TestWireKernelsAllocFree(t *testing.T) {
	evs := wireTestEvents(512, 16)
	frame := serve.AppendWireBatch(nil, evs)
	preds := make([]bitmap.Bitmap, len(evs))
	for i := range preds {
		preds[i] = bitmap.Bitmap(i) & bitmap.Full(16)
	}
	reply := serve.AppendWireReply(nil, preds)

	encB := make([]byte, 0, len(frame))
	encR := make([]byte, 0, len(reply))
	decE := make([]trace.Event, 0, len(evs))
	decP := make([]bitmap.Bitmap, 0, len(preds))
	var decErr error

	pins := []struct {
		name string
		fn   func()
	}{
		{"AppendWireBatch", func() { encB = serve.AppendWireBatch(encB[:0], evs) }},
		{"AppendWireReply", func() { encR = serve.AppendWireReply(encR[:0], preds) }},
		{"DecodeWireBatchInto", func() { decE, decErr = serve.DecodeWireBatchInto(frame, 16, decE[:0]) }},
		{"DecodeWireReplyInto", func() { decP, decErr = serve.DecodeWireReplyInto(reply, decP[:0]) }},
	}
	for _, pin := range pins {
		pin.fn() // warm once so capacity growth is excluded
		if decErr != nil {
			t.Fatalf("%s: %v", pin.name, decErr)
		}
		if got := testing.AllocsPerRun(100, pin.fn); got != 0 {
			t.Errorf("%s allocates %.1f times per call; the hot path requires 0", pin.name, got)
		}
	}
}

// discardWriter is the least ResponseWriter a handler can write to: a
// header map it keeps, a status, and a body it counts and drops.
type discardWriter struct {
	header  http.Header
	status  int
	written int
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.written += len(p)
	return len(p), nil
}

// TestWireHandlerAllocs pins what a warm COHWIRE1 post allocates through
// the whole route table, with a reused request and a minimal writer, so
// that the count is the handler's own: 6 allocations for an unkeyed post
// and 9 for a keyed one (its idempotency entry, its done channel and its
// cached frame), whatever the batch size. The collector is off while it
// counts: a collection empties the sync.Pools the handler draws from.
func TestWireHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a race build allocates more")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	h := srv.Handler()
	create := httptest.NewRecorder()
	h.ServeHTTP(create, httptest.NewRequest("POST", "/v1/sessions",
		strings.NewReader(`{"scheme":"last(add8)1","shards":2}`)))
	var sess serve.CreateSessionResponse
	if create.Code != http.StatusCreated || json.Unmarshal(create.Body.Bytes(), &sess) != nil {
		t.Fatalf("create: %d: %s", create.Code, create.Body)
	}

	for _, tc := range []struct {
		keyed  bool
		events int
		most   float64
	}{{false, 64, 6}, {false, 4096, 6}, {true, 64, 9}, {true, 4096, 9}} {
		frame := serve.AppendWireBatch(nil, sharingEvents(tc.events))
		body := bytes.NewReader(frame)
		req := httptest.NewRequest("POST", "/v1/sessions/"+sess.ID+"/events", nil)
		req.Header.Set("Content-Type", serve.ContentTypeWire)
		req.Header.Set("Accept", serve.ContentTypeWire)
		req.Body, req.ContentLength = io.NopCloser(body), int64(len(frame))
		// A keyed post needs a fresh key each time, set without allocating.
		keys := make([][]string, 256)
		for i := range keys {
			keys[i] = []string{fmt.Sprintf("k%d-%d", tc.events, i)}
		}
		w := &discardWriter{header: make(http.Header)}
		n := 0
		post := func() {
			body.Reset(frame)
			if tc.keyed {
				req.Header["Idempotency-Key"] = keys[n]
				n++
			}
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("post: status %d", w.status)
			}
		}
		post() // warm the pools and the session's tables
		if got := testing.AllocsPerRun(200, post); got > tc.most {
			t.Errorf("a warm %d-event post (keyed %v) allocates %.0f times; want at most %.0f",
				tc.events, tc.keyed, got, tc.most)
		}
	}
}

// TestJSONHandlerAllocs pins what a warm unkeyed JSON post allocates
// through the whole route table, as TestWireHandlerAllocs does for
// COHWIRE1: 15 allocations, the JSON decoder's own, whatever the batch
// size, because the events decode into the pooled slice (a fresh slice
// per post took 22 at 64 events and 33 at 4096). The collector is off
// while it counts: a collection empties the pools, and the posts that
// refill them would round the average past the bound.
func TestJSONHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a race build allocates more")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	h := srv.Handler()
	create := httptest.NewRecorder()
	h.ServeHTTP(create, httptest.NewRequest("POST", "/v1/sessions",
		strings.NewReader(`{"scheme":"last(add8)1","shards":2}`)))
	var sess serve.CreateSessionResponse
	if create.Code != http.StatusCreated || json.Unmarshal(create.Body.Bytes(), &sess) != nil {
		t.Fatalf("create: %d: %s", create.Code, create.Body)
	}
	for _, events := range []int{64, 4096} {
		data, err := json.Marshal(sharingEvents(events))
		if err != nil {
			t.Fatal(err)
		}
		body := bytes.NewReader(data)
		req := httptest.NewRequest("POST", "/v1/sessions/"+sess.ID+"/events", nil)
		req.Header.Set("Content-Type", "application/json")
		req.Body, req.ContentLength = io.NopCloser(body), int64(len(data))
		w := &discardWriter{header: make(http.Header)}
		post := func() {
			body.Reset(data)
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("post: status %d", w.status)
			}
		}
		post() // warm the pools and the session's tables
		if got := testing.AllocsPerRun(50, post); got > 15 {
			t.Errorf("a warm %d-event JSON post allocates %.0f times; want at most 15", events, got)
		}
	}
}
