package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cohpredict/internal/bitmap"
	resclient "cohpredict/internal/client"
	"cohpredict/internal/core"
	"cohpredict/internal/fault"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

func mustScheme(t testing.TB, s string) core.Scheme {
	t.Helper()
	sc, err := core.ParseScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestShardPanicSurfacedByClose is the drain-path fix's contract: a
// kernel panic is reported by the Post that hit it AND by every Close —
// the drain must not swallow a failure just because the session is going
// away.
func TestShardPanicSurfacedByClose(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, PanicAfter: 1}, nil)
	sess, err := serve.NewSession("t", serve.SessionConfig{
		Scheme:  mustScheme(t, "last(add8)1"),
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Shards:  1,
		Fault:   inj,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.PostInto(hammerEvents(8, 16), make([]bitmap.Bitmap, 8))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Post after injected panic: err = %v, want the kernel panic", err)
	}
	// Later posts keep failing rather than silently dropping events.
	if err := sess.PostInto(hammerEvents(4, 16), make([]bitmap.Bitmap, 4)); err == nil {
		t.Fatal("Post on a poisoned session succeeded")
	}
	if err := sess.Close(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Close swallowed the kernel panic: err = %v", err)
	}
	// Close is idempotent and keeps reporting.
	if err := sess.Close(); err == nil {
		t.Fatal("second Close swallowed the kernel panic")
	}
}

// TestShardPanicSurfacedOverHTTP covers the same path end to end: the
// events post that hit the panic gets a 500, and the DELETE drain
// reports it instead of returning a clean "drained".
func TestShardPanicSurfacedOverHTTP(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, PanicAfter: 1}, nil)
	srv := serve.NewServer(serve.Options{Fault: inj})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := resclient.New(resclient.Options{BaseURL: ts.URL, MaxRetries: -1, Sleep: func(time.Duration) {}})

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEventsKeyed(sess.ID, "", hammerEvents(8, 16)); err == nil {
		t.Fatal("events post over a panicked kernel succeeded, want 500")
	}
	err = cl.DeleteSession(sess.ID)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("delete of a panicked session: err = %v, want the kernel panic surfaced", err)
	}
}

// TestShardPanicNotRetriedOverHTTP: the 500 carrying a kernel panic is
// coded shard_failed, so the client classifies it non-retryable and gives
// up after one attempt instead of burning its retry budget on a session
// that can only fail again.
func TestShardPanicNotRetriedOverHTTP(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, PanicAfter: 1}, nil)
	srv := serve.NewServer(serve.Options{Fault: inj})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := resclient.New(resclient.Options{BaseURL: ts.URL, MaxRetries: 4, Sleep: func(time.Duration) {}})

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.PostEventsKeyed(sess.ID, "poison", hammerEvents(8, 16))
	var ae *resclient.APIError
	if err == nil || !errors.As(err, &ae) || ae.Code != serve.CodeShardFailed {
		t.Fatalf("err = %v, want APIError coded %q", err, serve.CodeShardFailed)
	}
	if resclient.Retryable(err) {
		t.Fatal("shard-failure response classified retryable")
	}
	if st := cl.Stats(); st.Retries != 0 {
		t.Fatalf("client burned %d retries on a permanent failure", st.Retries)
	}
}

// TestInjectedErrorCountsRequest: the injected-500 path short-circuits
// before wrap() runs, so it must count the request as well as the error —
// otherwise the error rate derived from the two counters exceeds 100%
// under chaos.
func TestInjectedErrorCountsRequest(t *testing.T) {
	reg := obs.New()
	inj := fault.New(fault.Config{Seed: 2, Error: 1.0}, nil)
	srv := serve.NewServer(serve.Options{Fault: inj, Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	body, err := jsonMarshal(hammerEvents(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 500 {
		t.Fatalf("status %d, want injected 500", code)
	}
	reqs := reg.Counter("serve_http_requests_total").Value()
	errs := reg.Counter("serve_http_errors_total").Value()
	if errs == 0 {
		t.Fatal("injected 500 not counted as an error")
	}
	if reqs < errs {
		t.Fatalf("requests_total %d < errors_total %d: injected errors must count as requests", reqs, errs)
	}
}

// TestIdempotentReplayDoesNotDoubleTrain: a replayed key returns the
// cached predictions and leaves the engine untouched; a fresh key trains.
func TestIdempotentReplayDoesNotDoubleTrain(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := resclient.New(resclient.Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	if err != nil {
		t.Fatal(err)
	}
	evs := hammerEvents(32, 16)

	first, err := cl.PostEventsKeyed(sess.ID, "batch-1", evs)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := cl.PostEventsKeyed(sess.ID, "batch-1", evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(replay) {
		t.Fatalf("replay returned %d predictions, original %d", len(replay), len(first))
	}
	for i := range first {
		if first[i] != replay[i] {
			t.Fatalf("replayed prediction %d differs: %#x vs %#x", i, replay[i], first[i])
		}
	}
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 32 {
		t.Fatalf("replayed batch trained the engine: %d events, want 32", st.Events)
	}
	// A fresh key is new work.
	if _, err := cl.PostEventsKeyed(sess.ID, "batch-2", evs); err != nil {
		t.Fatal(err)
	}
	if st, _ := cl.SessionStats(sess.ID); st.Events != 64 {
		t.Fatalf("fresh key did not train: %d events, want 64", st.Events)
	}
}

// TestIdempotencyUnderPureResets: with every events response torn down
// after processing, the client exhausts its retries — but the engine
// trained the batch exactly once, because every retry carried the same
// key. This is the lost-response case the idempotency cache exists for.
func TestIdempotencyUnderPureResets(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 9, Reset: 1.0}, nil)
	srv := serve.NewServer(serve.Options{Fault: inj})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := resclient.New(resclient.Options{
		BaseURL: ts.URL, MaxRetries: 2, Sleep: func(time.Duration) {},
	})

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
	if err != nil {
		t.Fatal(err) // session routes are never injected
	}
	if _, err := cl.PostEvents(sess.ID, hammerEvents(16, 16)); err == nil {
		t.Fatal("post succeeded although every response was reset")
	}
	cs := cl.Stats()
	if cs.Requests < 3 || cs.Replays != 2 {
		t.Fatalf("client stats %+v: want 3+ attempts with 2 keyed replays", cs)
	}
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 16 {
		t.Fatalf("%d attempts trained %d events, want exactly 16", cs.Requests, st.Events)
	}
}

// TestResetWritesNothing: an injected reset drops an events reply whole,
// in either encoding and whether the post succeeded or failed: the
// handler aborts before it writes a header or a byte.
func TestResetWritesNothing(t *testing.T) {
	srv := serve.NewServer(serve.Options{Fault: fault.New(fault.Config{Seed: 9, Reset: 1.0}, nil)})
	defer srv.Shutdown()
	h := srv.Handler()
	create := httptest.NewRecorder()
	h.ServeHTTP(create, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"scheme":"last(add8)1"}`)))
	var sess serve.CreateSessionResponse
	if create.Code != http.StatusCreated || json.Unmarshal(create.Body.Bytes(), &sess) != nil {
		t.Fatalf("create: %d: %s", create.Code, create.Body)
	}
	evs := hammerEvents(8, 16)
	jsonEvs, err := jsonMarshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range []struct {
		name, path, ctype string
		body              []byte
	}{
		{"json", "/v1/sessions/" + sess.ID + "/events", "application/json", jsonEvs},
		{"wire", "/v1/sessions/" + sess.ID + "/events", serve.ContentTypeWire, serve.AppendWireBatch(nil, evs)},
		{"unknown session", "/v1/sessions/nope/events", "application/json", jsonEvs},
	} {
		req := httptest.NewRequest("POST", post.path, bytes.NewReader(post.body))
		req.Header.Set("Content-Type", post.ctype)
		w := &discardWriter{header: make(http.Header)}
		func() {
			defer func() {
				if p := recover(); p != http.ErrAbortHandler {
					t.Errorf("%s: handler ended with %v, want the http.ErrAbortHandler abort", post.name, p)
				}
			}()
			h.ServeHTTP(w, req)
		}()
		if w.status != 0 || w.written != 0 || len(w.header) != 0 {
			t.Errorf("%s: a reset reply wrote status %d, %d bytes and headers %v", post.name, w.status, w.written, w.header)
		}
	}
	if st := srv.SessionByID(sess.ID).Stats(); st.Events != 16 {
		t.Fatalf("the reset posts trained %d events, want 16", st.Events)
	}
}

// TestInjectedHTTPFaultStatuses pins the wire mapping of each injected
// fault class on the events route, and that session-management routes are
// never injected.
func TestInjectedHTTPFaultStatuses(t *testing.T) {
	t.Run("error=1 gives 500", func(t *testing.T) {
		inj := fault.New(fault.Config{Seed: 2, Error: 1.0}, nil)
		srv := serve.NewServer(serve.Options{Fault: inj})
		defer srv.Shutdown()
		c, closeTS := newClient(t, srv)
		defer closeTS()
		sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"}) // not injected
		body, _ := jsonMarshal(hammerEvents(4, 16))
		if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 500 {
			t.Fatalf("status %d, want injected 500", code)
		}
		if st := c.stats(sess.ID); st.Events != 0 {
			t.Fatalf("injected 500 still trained %d events", st.Events)
		}
	})
	t.Run("drop=1 gives 503", func(t *testing.T) {
		inj := fault.New(fault.Config{Seed: 3, Drop: 1.0}, nil)
		srv := serve.NewServer(serve.Options{Fault: inj})
		defer srv.Shutdown()
		c, closeTS := newClient(t, srv)
		defer closeTS()
		sess := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"})
		body, _ := jsonMarshal(hammerEvents(4, 16))
		if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 503 {
			t.Fatalf("status %d, want admission-drop 503", code)
		}
		if st := c.stats(sess.ID); st.Events != 0 {
			t.Fatalf("dropped batch still trained %d events", st.Events)
		}
	})
}

// TestSnapshotRestoreHTTP drives the snapshot endpoints fault-free: a
// restored session (asking for another shard count) continues the stream
// with predictions and stats identical to the original, and the endpoint
// edge cases map to their documented statuses.
func TestSnapshotRestoreHTTP(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := resclient.New(resclient.Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})

	tr := genTrace(t, "em3d", 5)
	half := len(tr.Events) / 2

	sess, err := cl.CreateSession(serve.CreateSessionRequest{
		Scheme: "union(dir+add8)2[forwarded]", Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, tr.Events[:half]); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(sess.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Endpoint edge cases.
	if _, err := cl.Restore(sess.ID, snap, 0); err == nil {
		t.Fatal("restore over an existing session id succeeded, want 409")
	}
	if _, err := cl.Restore("broken", []byte("not a snapshot"), 0); err == nil {
		t.Fatal("restore of garbage bytes succeeded, want 400")
	}
	if _, err := cl.Snapshot("nope"); err == nil {
		t.Fatal("snapshot of unknown session succeeded, want 404")
	}

	// Restore asking for another shard count and race the two sessions
	// through the rest of the trace: byte-identical behaviour.
	if _, err := cl.Restore("twin", snap, 5); err != nil {
		t.Fatal(err)
	}
	for lo := half; lo < len(tr.Events); lo += 97 {
		hi := lo + 97
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		a, err := cl.PostEvents(sess.ID, tr.Events[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.PostEvents("twin", tr.Events[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d: original %#x, restored twin %#x", lo+i, a[i], b[i])
			}
		}
	}
	sa, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := cl.SessionStats("twin")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Events != sb.Events || sa.TP != sb.TP || sa.FP != sb.FP || sa.TN != sb.TN || sa.FN != sb.FN {
		t.Fatalf("stats diverged after restore:\n  original %+v\n  twin     %+v", sa, sb)
	}
	if sa.TableEntries != sb.TableEntries {
		t.Fatalf("table entries diverged: %d vs %d", sa.TableEntries, sb.TableEntries)
	}
	if err := cl.DeleteSession("twin"); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteSession("twin"); err != nil {
		t.Fatalf("delete after delete: %v, want nil (404 is success)", err)
	}
}
