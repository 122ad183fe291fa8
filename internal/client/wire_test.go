package client

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/serve"
)

// wireEcho is a stub predserve that speaks COHWIRE1: it decodes the
// binary batch and replies with each event's future_readers as the
// prediction, so the test can verify the round trip end to end.
func wireEcho(t *testing.T, wirePosts *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") != serve.ContentTypeWire {
			t.Errorf("binary client sent Content-Type %q", r.Header.Get("Content-Type"))
		}
		wirePosts.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
		}
		evs, err := serve.DecodeWireBatchInto(body, 16, nil)
		if err != nil {
			t.Errorf("decoding posted frame: %v", err)
		}
		preds := make([]bitmap.Bitmap, len(evs))
		for i, ev := range evs {
			preds[i] = ev.FutureReaders
		}
		w.Header().Set("Content-Type", serve.ContentTypeWire)
		w.Write(serve.AppendWireReply(nil, preds))
	}
}

// TestBinaryPostsWire: a Binary client encodes event posts as COHWIRE1
// frames and decodes the binary reply.
func TestBinaryPostsWire(t *testing.T) {
	var wirePosts atomic.Int32
	ts := httptest.NewServer(wireEcho(t, &wirePosts))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Binary: true, Sleep: func(time.Duration) {}})
	preds, err := c.PostEvents("s1", []serve.EventRequest{
		{PID: 1, PC: 20, Dir: 2, Addr: 64, FutureReaders: 6},
		{PID: 0, Addr: 128, HasPrev: true, PrevPID: 3, PrevPC: 9, FutureReaders: 0x8001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0] != 6 || preds[1] != 0x8001 {
		t.Fatalf("predictions = %#v", preds)
	}
	if wirePosts.Load() != 1 {
		t.Fatalf("server saw %d wire posts, want 1", wirePosts.Load())
	}
}

// TestBinaryDowngradeOnce pins that the transport never changes under
// the client: against a server that does not speak COHWIRE1 (it answers
// 415), a Binary client returns the 415 as an *APIError after exactly
// one request — no JSON fallback post, no retry.
func TestBinaryDowngradeOnce(t *testing.T) {
	var wirePosts, jsonPosts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") != "application/json" {
			// An old predserve: unknown content types are refused before
			// any state change.
			wirePosts.Add(1)
			w.WriteHeader(http.StatusUnsupportedMediaType)
			w.Write([]byte(`{"error":"serve: unsupported content type"}`))
			return
		}
		jsonPosts.Add(1)
		w.Write([]byte(`{"events":1,"predictions":[9]}`))
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Binary: true, Sleep: func(time.Duration) {}})
	_, err := c.PostEvents("s1", []serve.EventRequest{{PID: 0, FutureReaders: 9}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("post against a JSON-only server: want *APIError 415, got %v", err)
	}
	if wirePosts.Load() != 1 || jsonPosts.Load() != 0 {
		t.Fatalf("server saw %d wire and %d JSON posts, want 1 and 0", wirePosts.Load(), jsonPosts.Load())
	}
	if st := c.Stats(); st.Requests != 1 || st.Retries != 0 {
		t.Fatalf("stats %+v: the 415 was retried", st)
	}
}

// TestJSONClientNeverSendsWire: without Binary the client is bit-for-bit
// the old JSON client.
func TestJSONClientNeverSendsWire(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("JSON client sent Content-Type %q", ct)
		}
		w.Write([]byte(`{"events":1,"predictions":[0]}`))
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})
	if _, err := c.PostEvents("s1", []serve.EventRequest{{}}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryRetryKeepsKey: wire-transport retries carry the same
// idempotency key, exactly like JSON ones.
func TestBinaryRetryKeepsKey(t *testing.T) {
	var keys []string
	var fails atomic.Int32
	fails.Store(2)
	var wirePosts atomic.Int32
	echo := wireEcho(t, &wirePosts)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"serve: draining"}`))
			return
		}
		echo(w, r)
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Binary: true, Seed: 1, Sleep: func(time.Duration) {}})
	preds, err := c.PostEvents("s1", []serve.EventRequest{{PID: 2, FutureReaders: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != 5 {
		t.Fatalf("predictions = %v", preds)
	}
	if len(keys) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(keys))
	}
	for _, k := range keys {
		if k == "" || k != keys[0] {
			t.Fatalf("retry changed the idempotency key: %q vs %q", k, keys[0])
		}
	}
}
