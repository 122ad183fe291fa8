package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	resclient "cohpredict/internal/client"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// TestAPIErrors walks the HTTP surface's failure modes: every bad input
// maps to the documented status with a JSON error envelope, and nothing
// leaks a 500.
func TestAPIErrors(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	valid := `{"scheme":"last(dir+add8)1"}`
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(dir+add8)1"})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"create bad json", "POST", "/v1/sessions", `{`, 400},
		{"create unknown scheme", "POST", "/v1/sessions", `{"scheme":"bogus(add8)1"}`, 400},
		{"create unknown field", "POST", "/v1/sessions", `{"scheme":"last(add8)1","shardz":2}`, 400},
		{"create bad nodes", "POST", "/v1/sessions", `{"scheme":"last(add8)1","nodes":999}`, 400},
		{"create bad line size", "POST", "/v1/sessions", `{"scheme":"last(add8)1","line_bytes":17}`, 400},
		{"create line size above 1 MiB", "POST", "/v1/sessions", `{"scheme":"last(add8)1","line_bytes":2097152}`, 400},
		{"create bad shards", "POST", "/v1/sessions", `{"scheme":"last(add8)1","shards":-1}`, 400},
		{"create index wider than a key", "POST", "/v1/sessions", `{"scheme":"last(pid+pc62+add4)1"}`, 400},
		{"create index width overflow", "POST", "/v1/sessions", `{"scheme":"last(pc9223372036854775807+add2)1"}`, 400},
		{"create index wider than a key on the machine", "POST", "/v1/sessions", `{"scheme":"last(pid+pc55+dir+add4)1"}`, 400},
		{"create ok", "POST", "/v1/sessions", valid, 201},
		{"events unknown session", "POST", "/v1/sessions/nope/events", `{"pid":0,"future_readers":0}`, 404},
		{"events bad json", "POST", "/v1/sessions/" + sess.ID + "/events", `{"pid":`, 400},
		{"events unknown field", "POST", "/v1/sessions/" + sess.ID + "/events", `{"pid":0,"pd":1}`, 400},
		{"events trailing data", "POST", "/v1/sessions/" + sess.ID + "/events", `{"pid":0,"future_readers":0}[]`, 400},
		{"events pid out of range", "POST", "/v1/sessions/" + sess.ID + "/events", `{"pid":16,"future_readers":0}`, 400},
		{"events bitmap out of range", "POST", "/v1/sessions/" + sess.ID + "/events", `{"pid":0,"future_readers":65536}`, 400},
		{"events empty body", "POST", "/v1/sessions/" + sess.ID + "/events", ``, 400},
		{"stats unknown session", "GET", "/v1/sessions/nope/stats", "", 404},
		{"delete unknown session", "DELETE", "/v1/sessions/nope", "", 404},
		{"wrong method", "PUT", "/v1/sessions", valid, 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := c.do(tc.method, tc.path, []byte(tc.body), nil)
			if got != tc.want {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, got, tc.want)
			}
		})
	}
}

// TestLargestLineSnapshotRestores: a session with the largest legal
// line size snapshots, and its snapshot restores with the same tallies —
// create, restore and the snapshot decoder apply one machine-size rule.
func TestLargestLineSnapshotRestores(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(dir+add8)1", LineBytes: 1 << 20})
	c.postEvents(sess.ID, hammerEvents(64, 16), 16)
	data, snap := c.snapshot(sess.ID)
	if snap.Machine.LineBytes != 1<<20 {
		t.Fatalf("snapshot line size %d, want %d", snap.Machine.LineBytes, 1<<20)
	}
	c.restore("restored", data, 2)
	got, want := c.stats("restored"), c.stats(sess.ID)
	if got.Events != want.Events || got.TP != want.TP || got.FP != want.FP || got.TN != want.TN || got.FN != want.FN {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
}

// TestSingleEventForm checks the endpoint's convenience form: one bare
// JSON object ingests exactly one event and returns one prediction.
func TestSingleEventForm(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Nodes: 4})
	var resp serve.EventsResponse
	body := []byte(`{"pid":0,"pc":20,"dir":0,"addr":4096,"inv_readers":6,"future_readers":6}`)
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Events != 1 || len(resp.Predictions) != 1 {
		t.Fatalf("single event returned %d/%d predictions", resp.Events, len(resp.Predictions))
	}
	// Warm the entry, then the single form must predict the trained set
	// minus the writer.
	c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil)
	c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, &resp)
	if resp.Predictions[0] != 6 {
		t.Fatalf("warm prediction %#x, want 6 (nodes {1,2})", resp.Predictions[0])
	}
}

// TestEventsJSONReply pins the JSON events reply, which the route
// transcodes from the COHWIRE1 frame it posts: the bytes json.Marshal
// writes for the EventsResponse, [] (not null) for an empty batch, and
// for a keyed post and its replay the same bytes.
func TestEventsJSONReply(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 2}).ID
	path := "/v1/sessions/" + id + "/events"

	code, hdr, body := c.doRaw("POST", path, []byte(`[]`), nil)
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" ||
		string(body) != `{"events":0,"predictions":[]}` {
		t.Fatalf("empty batch: %d %q: %q", code, hdr.Get("Content-Type"), body)
	}

	evs, err := json.Marshal(sharingEvents(300))
	if err != nil {
		t.Fatal(err)
	}
	key := map[string]string{"Idempotency-Key": "json-replay"}
	code, _, first := c.doRaw("POST", path, evs, key)
	if code != http.StatusOK {
		t.Fatalf("keyed post: %d: %s", code, first)
	}
	var resp serve.EventsResponse
	if err := json.Unmarshal(first, &resp); err != nil || resp.Events != 300 {
		t.Fatalf("keyed post reply %q: %v", first, err)
	}
	if want, _ := json.Marshal(resp); !bytes.Equal(first, want) {
		t.Fatalf("reply is not json.Marshal's encoding of its EventsResponse:\n got %s\nwant %s", first, want)
	}
	code, _, again := c.doRaw("POST", path, evs, key)
	if code != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("replay: %d, same bytes %v", code, bytes.Equal(again, first))
	}
	if got := c.stats(id).Events; got != 300 {
		t.Fatalf("trained %d events, want 300: the replay must not train", got)
	}
}

// TestBackpressure429 fills a deliberately tiny queue: a batch larger than
// max_pending must be refused whole with 429 and leave the session's
// accounting untouched.
func TestBackpressure429(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{
		Scheme: "last(add8)1", MaxPending: 4,
	})
	body, err := jsonMarshal(hammerEvents(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 429 {
		t.Fatalf("oversized batch: status %d, want 429", code)
	}
	st := c.stats(sess.ID)
	if st.Events != 0 {
		t.Fatalf("refused batch partially ingested: %d events", st.Events)
	}
	// A batch that fits still goes through.
	small, _ := jsonMarshal(hammerEvents(4, 16))
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", small, nil); code != 200 {
		t.Fatalf("fitting batch: status %d", code)
	}
}

// TestSessionLimit429 checks the server-wide session cap.
func TestSessionLimit429(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	for i := 0; i < serve.MaxSessions; i++ {
		c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	}
	body := []byte(`{"scheme":"last(add8)1"}`)
	if code := c.do("POST", "/v1/sessions", body, nil); code != 429 {
		t.Fatalf("over-limit create: status %d, want 429", code)
	}
}

// TestDraining503 checks the drain protocol over HTTP: after Shutdown the
// health endpoint reports draining and session creation is refused with
// 503 (drained sessions themselves are gone, so their routes 404).
func TestDraining503(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	srv.Shutdown()

	if code := c.do("GET", "/healthz", nil, nil); code != 503 {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
	if code := c.do("POST", "/v1/sessions", []byte(`{"scheme":"last(add8)1"}`), nil); code != 503 {
		t.Fatalf("create while draining: status %d, want 503", code)
	}
	if code := c.do("GET", "/v1/sessions/"+sess.ID+"/stats", nil, nil); code != 404 {
		t.Fatalf("stats on drained session: status %d, want 404", code)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("%d sessions survive shutdown", srv.Sessions())
	}
}

// TestBodyLimit413 checks the request-size guard: a batch padded to
// MaxBodyBytes is read, and one byte more is refused.
func TestBodyLimit413(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	batch, _ := jsonMarshal(hammerEvents(4, 16))
	padded := func(n int) []byte {
		return append(bytes.Repeat([]byte(" "), n-len(batch)), batch...)
	}
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", padded(serve.MaxBodyBytes), nil); code != 200 {
		t.Fatalf("body at the bound: status %d, want 200", code)
	}
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", padded(serve.MaxBodyBytes+1), nil); code != 413 {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
}

// TestMetricsEndpoint checks that the serve_* instrument family shows up
// in Prometheus text once traffic has flowed.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	srv := serve.NewServer(serve.Options{Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	body, _ := jsonMarshal(hammerEvents(32, 16))
	c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil)

	get := func(accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("GET", c.base+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Prometheus text unless the client asks for JSON.
	for _, accept := range []string{"", "text/plain", "*/*"} {
		resp, body := get(accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Accept %q: Content-Type %q, want text/plain", accept, ct)
		}
		text := string(body)
		for _, want := range []string{
			"serve_sessions_total", "serve_events_total", "serve_batches_total",
			"serve_http_requests_total", "serve_batch_size",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("Accept %q: metrics output missing %s:\n%s", accept, want, text)
			}
		}
	}

	// The same registry as obs.Snapshot JSON: the form tools read.
	resp, body := get("application/json")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var snap obs.Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("metrics JSON does not decode as obs.Snapshot: %v\n%s", err, body)
	}
	if got := snap.Counters["serve_events_total"]; got != 32 {
		t.Fatalf("serve_events_total %d, want 32", got)
	}
	if h := snap.Histograms["serve_batch_size"]; h.Count == 0 {
		t.Fatalf("serve_batch_size histogram empty in the JSON form: %+v", h)
	}
}

// TestSessionList checks ordering and contents of the listing endpoint.
func TestSessionList(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	first := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	second := c.createSession(serve.CreateSessionRequest{Scheme: "union(dir+add8)2", Shards: 2})
	var list serve.SessionListResponse
	if code := c.do("GET", "/v1/sessions", nil, &list); code != 200 {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("%d sessions listed, want 2", len(list.Sessions))
	}
	if list.Sessions[0].ID != first.ID || list.Sessions[1].ID != second.ID {
		t.Fatalf("listing out of order: %s, %s", list.Sessions[0].ID, list.Sessions[1].ID)
	}
	if list.Sessions[1].Shards != 2 {
		t.Fatalf("listing lost config: %+v", list.Sessions[1])
	}
}

// TestCreateIgnoresFlushMicros pins the create API's compatibility with
// clients written for the retired flush deadline: any flush_micros value
// is accepted, including ones the deadline's range check refused, and
// every session reports 0 because shards flush when idle.
func TestCreateIgnoresFlushMicros(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	for _, v := range []int{0, -1, 200, 5000000} {
		body := fmt.Sprintf(`{"scheme":"last(add8)1","flush_micros":%d}`, v)
		var resp serve.CreateSessionResponse
		if code := c.do("POST", "/v1/sessions", []byte(body), &resp); code != http.StatusCreated {
			t.Fatalf("flush_micros %d: status %d, want 201", v, code)
		}
		if resp.FlushMicros != 0 {
			t.Fatalf("flush_micros %d: session reports %d, want 0", v, resp.FlushMicros)
		}
	}
}

// TestEmptyAndNullBatches: an empty batch posted over either transport,
// by the Go client or as raw bodies, trains nothing and gets the same
// empty reply; a null body, or a null in place of an event, is refused
// with 400 before anything trains, where it once trained a zero event.
func TestEmptyAndNullBatches(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "last(dir+add8)1"}).ID
	path := "/v1/sessions/" + id + "/events"

	for _, binary := range []bool{false, true} {
		cl := resclient.New(resclient.Options{BaseURL: c.base, Binary: binary, HTTP: c.http})
		if preds, err := cl.PostEvents(id, nil); err != nil || len(preds) != 0 {
			t.Fatalf("client (binary %v) posting an empty batch: %v, %v; want no predictions", binary, preds, err)
		}
	}
	empty := serve.AppendWireReply(nil, nil)
	asWire := map[string]string{"Accept": serve.ContentTypeWire}
	if code, _, reply := c.doRaw("POST", path, []byte(`[]`), asWire); code != http.StatusOK || !bytes.Equal(reply, empty) {
		t.Fatalf("JSON [] asking for COHWIRE1: status %d, reply %x; want %x", code, reply, empty)
	}
	asWire["Content-Type"] = serve.ContentTypeWire
	if code, _, reply := c.doRaw("POST", path, serve.AppendWireBatch(nil, nil), asWire); code != http.StatusOK || !bytes.Equal(reply, empty) {
		t.Fatalf("empty COHWIRE1 batch: status %d, reply %x; want %x", code, reply, empty)
	}
	if code, _, reply := c.doRaw("POST", path, []byte(` [ ] `), nil); code != http.StatusOK || string(reply) != `{"events":0,"predictions":[]}` {
		t.Fatalf("JSON []: status %d, reply %s", code, reply)
	}

	ev := `{"pid":1,"dir":2,"addr":64,"future_readers":1}`
	for _, body := range []string{`null`, ` null `, `[null]`, `[null,null]`, `[` + ev + `,null]`, `[` + ev + ` , null ,` + ev + `]`} {
		if code, _, reply := c.doRaw("POST", path, []byte(body), nil); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d: %s; want 400", body, code, reply)
		}
	}
	if got := c.stats(id).Events; got != 0 {
		t.Fatalf("the session trained %d events, want 0", got)
	}
}
