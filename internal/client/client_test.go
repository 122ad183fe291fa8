package client

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/serve"
)

// TestBackoffDeterministicAndBounded: the jittered schedule is a pure
// function of the seed, and every wait lies in [d/2, d] for the capped
// exponential d.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	a, b, other := New(Options{Seed: 7}), New(Options{Seed: 7}), New(Options{Seed: 8})
	diff := false
	for n := 0; n < 12; n++ {
		da, db := a.backoff(n), b.backoff(n)
		if da != db {
			t.Fatalf("attempt %d: same seed drew %v and %v", n, da, db)
		}
		if da != other.backoff(n) {
			diff = true
		}
		d := baseBackoff << uint(n)
		if d <= 0 || d > maxBackoff {
			d = maxBackoff
		}
		if da < d/2 || da > d {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", n, da, d/2, d)
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// TestIdempotencyKeysAreSeededAndUnique: keys are unique within a client
// and replay exactly across same-seed clients.
func TestIdempotencyKeysAreSeededAndUnique(t *testing.T) {
	a, b := New(Options{Seed: 42}), New(Options{Seed: 42})
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		ka := a.NextIdempotencyKey()
		if seen[ka] {
			t.Fatalf("duplicate key %q", ka)
		}
		seen[ka] = true
		if kb := b.NextIdempotencyKey(); kb != ka {
			t.Fatalf("same-seed clients minted %q and %q", ka, kb)
		}
	}
}

// TestRetryKeepsIdempotencyKey: every retry of one post carries the same
// key — the property the server-side cache depends on.
func TestRetryKeepsIdempotencyKey(t *testing.T) {
	var keys []string
	var fails atomic.Int32
	fails.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"events":1,"predictions":[6]}`))
	}))
	defer ts.Close()

	var slept int
	c := New(Options{BaseURL: ts.URL, Seed: 1, Sleep: func(time.Duration) { slept++ }})
	preds, err := c.PostEvents("s1", []serve.EventRequest{{PID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != 6 {
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
	if slept != 2 {
		t.Fatalf("slept %d times, want one backoff per retry (2)", slept)
	}
	st := c.Stats()
	if st.Requests != 3 || st.Retries != 2 || st.Replays != 2 || st.SleptNS <= 0 {
		t.Fatalf("stats %+v, want {Requests:3 Retries:2 Replays:2 SleptNS>0}", st)
	}
}

// TestNonRetryableStopsImmediately: a 4xx is the caller's bug and is not
// retried.
func TestNonRetryableStopsImmediately(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"serve: bad request"}`))
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})
	_, err := c.PostEvents("s1", nil)
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if ae.Message != "serve: bad request" {
		t.Fatalf("message %q not extracted from the error envelope", ae.Message)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no retry on 400)", hits.Load())
	}
}

// TestRetriesExhausted: a persistently-failing endpoint gives up after
// 1 + MaxRetries attempts and reports the last error.
func TestRetriesExhausted(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, MaxRetries: 3, Sleep: func(time.Duration) {}})
	if _, err := c.PostEvents("s1", nil); err == nil {
		t.Fatal("post against a dead endpoint succeeded")
	}
	if hits.Load() != 4 {
		t.Fatalf("server saw %d attempts, want 1+MaxRetries = 4", hits.Load())
	}
}

// TestRetryableClassification pins the retry policy.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&APIError{Status: 400}, false},
		{&APIError{Status: 404}, false},
		{&APIError{Status: 409}, false},
		{&APIError{Status: 429}, true},
		{&APIError{Status: 500}, true},
		{&APIError{Status: 503}, true},
		{&APIError{Status: 500, Code: serve.CodeShardFailed}, false}, // poisoned session: permanent
		{http.ErrHandlerTimeout, true},                               // any transport-level error
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestCreateSessionNotRetriedOnTransportError: a transport failure on a
// non-idempotent create is ambiguous — the server may already hold the
// session — so it surfaces after one attempt instead of risking
// duplicates. The same failure on an idempotent keyed post is retried.
func TestCreateSessionNotRetriedOnTransportError(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("response writer is not a hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close() // reset before any response: the outcome is ambiguous
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, MaxRetries: 2, Sleep: func(time.Duration) {}})
	if _, err := c.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1"}); err == nil {
		t.Fatal("create against a connection-dropping server succeeded")
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d create attempts, want 1 (ambiguous outcome must not retry)", hits.Load())
	}

	hits.Store(0)
	if _, err := c.PostEvents("s1", nil); err == nil {
		t.Fatal("post against a connection-dropping server succeeded")
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d post attempts, want 1+MaxRetries = 3 (keyed posts retry transport errors)", hits.Load())
	}
}

// TestCreateSessionRetryPolicy: 429 and 503 responses prove the server
// refused before any state change, so creation retries them; a 500 (or
// any other response) is not provably state-free and is not retried.
func TestCreateSessionRetryPolicy(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.Write([]byte(`{"id":"s1","scheme":"last(add8)1","nodes":16,"line_bytes":64,"shards":1}`))
		}
	}))
	defer ts.Close()
	c := New(Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})
	out, err := c.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != "s1" || hits.Load() != 3 {
		t.Fatalf("id %q after %d attempts, want s1 after 3 (503 and 429 retried)", out.ID, hits.Load())
	}

	var hits500 atomic.Int32
	ts500 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits500.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts500.Close()
	c500 := New(Options{BaseURL: ts500.URL, Sleep: func(time.Duration) {}})
	if _, err := c500.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1"}); err == nil {
		t.Fatal("create against a 500ing server succeeded")
	}
	if hits500.Load() != 1 {
		t.Fatalf("server saw %d create attempts on 500, want 1", hits500.Load())
	}
}

// TestDeleteAfterDeleteIsSuccess: a 404 on DELETE means the session is
// already gone — the outcome the caller wanted.
func TestDeleteAfterDeleteIsSuccess(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"serve: no session"}`))
	}))
	defer ts.Close()
	c := New(Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})
	if err := c.DeleteSession("gone"); err != nil {
		t.Fatalf("delete of an absent session: %v, want nil", err)
	}
}

// TestRetryReusesRequestID: every attempt of one logical post carries the
// same X-Request-ID, the id is seeded and distinct from the idempotency
// key, and a post that needed retries surfaces its id in Stats.
func TestRetryReusesRequestID(t *testing.T) {
	var ids, keys []string
	var fails atomic.Int32
	fails.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids = append(ids, r.Header.Get("X-Request-ID"))
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"events":1,"predictions":[6]}`))
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Seed: 7, Sleep: func(time.Duration) {}})
	if _, err := c.PostEvents("s1", []serve.EventRequest{{PID: 0}}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(ids))
	}
	want := "0000000000000007-r1"
	for _, id := range ids {
		if id != want {
			t.Fatalf("retry changed the request id: %q, want %q", id, want)
		}
	}
	if ids[0] == keys[0] {
		t.Fatalf("request id %q collides with the idempotency key", ids[0])
	}
	st := c.Stats()
	if len(st.RetriedIDs) != 1 || st.RetriedIDs[0] != want {
		t.Fatalf("RetriedIDs = %v, want [%s]", st.RetriedIDs, want)
	}

	// A clean second post mints a fresh id and is NOT recorded as retried.
	if _, err := c.PostEvents("s1", []serve.EventRequest{{PID: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := ids[len(ids)-1]; got != "0000000000000007-r2" {
		t.Fatalf("second post id = %q, want 0000000000000007-r2", got)
	}
	if st := c.Stats(); len(st.RetriedIDs) != 1 {
		t.Fatalf("clean post polluted RetriedIDs: %v", st.RetriedIDs)
	}
}
