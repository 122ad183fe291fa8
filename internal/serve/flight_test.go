package serve_test

import (
	"encoding/json"
	"testing"
	"time"

	"cohpredict/internal/flight"
	"cohpredict/internal/serve"
)

// flightServer builds a server with an explicit flight recorder so the
// tests control sampling and promotion.
func flightServer(t *testing.T, fo flight.Options) (*serve.Server, *client, func()) {
	t.Helper()
	srv := serve.NewServer(serve.Options{Flight: flight.New(fo)})
	c, closeTS := newClient(t, srv)
	return srv, c, closeTS
}

// capture fetches one of the debug endpoints into a typed document.
func (c *client) capture(path string) flight.Capture {
	c.t.Helper()
	code, _, body := c.doRaw("GET", path, nil, nil)
	if code != 200 {
		c.t.Fatalf("GET %s: status %d", path, code)
	}
	var cap flight.Capture
	if err := json.Unmarshal(body, &cap); err != nil {
		c.t.Fatalf("decoding capture: %v", err)
	}
	return cap
}

// TestRequestIDEchoed: the server echoes a client X-Request-ID on the
// events response — both transports — and the id lands in the capture.
func TestRequestIDEchoed(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1, SlowThreshold: time.Hour})
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})

	body, _ := jsonMarshal(hammerEvents(8, 4))
	code, hdr, _ := c.doRaw("POST", "/v1/sessions/"+sess.ID+"/events", body,
		map[string]string{"X-Request-ID": "req-json-1"})
	if code != 200 || hdr.Get("X-Request-ID") != "req-json-1" {
		t.Fatalf("json post: status %d, echoed id %q", code, hdr.Get("X-Request-ID"))
	}

	frame := serve.AppendWireBatch(nil, hammerEvents(8, 4))
	code, hdr, _ = c.doRaw("POST", "/v1/sessions/"+sess.ID+"/events", frame, map[string]string{
		"Content-Type": serve.ContentTypeWire, "Accept": serve.ContentTypeWire,
		"X-Request-ID": "req-wire-1",
	})
	if code != 200 || hdr.Get("X-Request-ID") != "req-wire-1" {
		t.Fatalf("wire post: status %d, echoed id %q", code, hdr.Get("X-Request-ID"))
	}

	cap := c.capture("/v1/debug/requests")
	ids := map[string]string{}
	for _, e := range cap.Requests {
		ids[e.ID] = e.Transport
	}
	if ids["req-json-1"] != flight.TransportJSON || ids["req-wire-1"] != flight.TransportWire {
		t.Fatalf("captured ids/transports = %v", ids)
	}
}

// TestDebugRequestsCapture: at sample 1 every post is captured with its
// session, sizes, stage timings, and batch count; the read is destructive.
func TestDebugRequestsCapture(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1, SlowThreshold: time.Hour})
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})

	const posts = 3
	evs := hammerEvents(16, 4)
	body, _ := jsonMarshal(evs)
	for i := 0; i < posts; i++ {
		if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 200 {
			t.Fatalf("post %d: status %d", i, code)
		}
	}

	cap := c.capture("/v1/debug/requests")
	if cap.Kind != flight.KindRequests || cap.Sample != 1 {
		t.Fatalf("capture header = %+v", cap)
	}
	if len(cap.Requests) != posts {
		t.Fatalf("captured %d requests, want %d", len(cap.Requests), posts)
	}
	for i, e := range cap.Requests {
		if i > 0 && e.Seq <= cap.Requests[i-1].Seq {
			t.Fatalf("entries not seq-ordered: %d after %d", e.Seq, cap.Requests[i-1].Seq)
		}
		if e.Session != sess.ID || e.Route != flight.RouteEvents || e.Status != 200 {
			t.Fatalf("entry %d = %+v", i, e)
		}
		if e.Events != 16 || e.BytesIn != len(body) || e.BytesOut <= 0 {
			t.Fatalf("entry %d sizes: events=%d in=%d out=%d", i, e.Events, e.BytesIn, e.BytesOut)
		}
		if e.Batches < 1 || e.TotalNS <= 0 || e.DecodeNS <= 0 || e.QueueNS < 0 || e.ExecNS < 0 {
			t.Fatalf("entry %d stages: %+v", i, e)
		}
	}
	// Destructive read: the ring is now empty.
	if again := c.capture("/v1/debug/requests"); len(again.Requests) != 0 {
		t.Fatalf("second capture returned %d entries, want 0", len(again.Requests))
	}
}

// TestSamplingSkipsRequests: at a large sample stride, unsampled healthy
// requests leave no trace in either ring.
func TestSamplingSkipsRequests(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1 << 20, SlowThreshold: time.Hour})
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})
	body, _ := jsonMarshal(hammerEvents(8, 4))
	for i := 0; i < 5; i++ {
		c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil)
	}
	if cap := c.capture("/v1/debug/requests"); len(cap.Requests) != 0 {
		t.Fatalf("unsampled requests captured: %d", len(cap.Requests))
	}
	if cap := c.capture("/v1/debug/slow"); len(cap.Requests) != 0 {
		t.Fatalf("healthy requests in slow-log: %d", len(cap.Requests))
	}
	if seen := c.capture("/v1/debug/requests").Seen; seen < 5 {
		t.Fatalf("requests_seen = %d, want >= 5", seen)
	}
}

// TestSlowThresholdPromotes: with a zero-distance threshold every request
// counts as slow and lands in the slow-log despite never sampling.
func TestSlowThresholdPromotes(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1 << 20, SlowThreshold: time.Nanosecond})
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})
	body, _ := jsonMarshal(hammerEvents(8, 4))
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 200 {
		t.Fatalf("post: status %d", code)
	}
	cap := c.capture("/v1/debug/slow")
	if cap.Kind != flight.KindSlow || len(cap.Requests) != 1 || cap.Requests[0].Status != 200 {
		t.Fatalf("slow capture = %+v", cap)
	}
}

// TestErrorRequestsPromoted: failed requests (unknown session → 404)
// bypass sampling into the slow-log with their status.
func TestErrorRequestsPromoted(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1 << 20, SlowThreshold: time.Hour})
	defer closeTS()
	code, _, _ := c.doRaw("POST", "/v1/sessions/nope/events",
		[]byte(`{"pid":0,"future_readers":0}`), map[string]string{"X-Request-ID": "lost-1"})
	if code != 404 {
		t.Fatalf("status %d, want 404", code)
	}
	cap := c.capture("/v1/debug/slow")
	if len(cap.Requests) != 1 {
		t.Fatalf("slow-log holds %d entries, want 1", len(cap.Requests))
	}
	if e := cap.Requests[0]; e.Status != 404 || e.ID != "lost-1" || e.Session != "" {
		t.Fatalf("slow entry = %+v", e)
	}
}

// TestReplayMarked: a keyed retry served from the idempotency cache is
// flagged replay in its trace and does not run the kernel.
func TestReplayMarked(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1, SlowThreshold: time.Hour})
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})
	body, _ := jsonMarshal(hammerEvents(8, 4))
	hdr := map[string]string{"Idempotency-Key": "k1"}
	for i := 0; i < 2; i++ {
		if code, _, _ := c.doRaw("POST", "/v1/sessions/"+sess.ID+"/events", body, hdr); code != 200 {
			t.Fatalf("post %d: status %d", i, code)
		}
	}
	cap := c.capture("/v1/debug/requests")
	if len(cap.Requests) != 2 {
		t.Fatalf("captured %d requests, want 2", len(cap.Requests))
	}
	first, second := cap.Requests[0], cap.Requests[1]
	if first.Replay || !second.Replay {
		t.Fatalf("replay flags = %v/%v, want false/true", first.Replay, second.Replay)
	}
	if first.Batches < 1 || second.Batches != 0 {
		t.Fatalf("batches = %d/%d: the replay must not run the kernel", first.Batches, second.Batches)
	}
}

// TestWireCaptureBytes: the wire path stamps byte sizes and decode/encode
// stages like the JSON path does.
func TestWireCaptureBytes(t *testing.T) {
	_, c, closeTS := flightServer(t, flight.Options{Sample: 1, SlowThreshold: time.Hour})
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})
	frame := serve.AppendWireBatch(nil, hammerEvents(32, 4))
	code, _, reply := c.doRaw("POST", "/v1/sessions/"+sess.ID+"/events", frame, map[string]string{
		"Content-Type": serve.ContentTypeWire, "Accept": serve.ContentTypeWire,
	})
	if code != 200 {
		t.Fatalf("wire post: status %d", code)
	}
	cap := c.capture("/v1/debug/requests")
	if len(cap.Requests) != 1 {
		t.Fatalf("captured %d requests, want 1", len(cap.Requests))
	}
	e := cap.Requests[0]
	if e.Transport != flight.TransportWire || e.Events != 32 {
		t.Fatalf("entry = %+v", e)
	}
	if e.BytesIn != len(frame) || e.BytesOut != len(reply) {
		t.Fatalf("bytes in/out = %d/%d, want %d/%d", e.BytesIn, e.BytesOut, len(frame), len(reply))
	}
}
