package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"cohpredict/internal/bitmap"
	resclient "cohpredict/internal/client"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// Acknowledged idempotency keys: a client that holds a keyed post's
// reply names its key in the Idempotency-Ack header of a later post, and
// the session keeps the key but drops the reply. These tests pin that a
// stale duplicate of an acknowledged key is refused before anything
// trains, on the live session and on a copy restored from its snapshot;
// that an acknowledged entry travels in the snapshot as its key alone;
// and that stats measure what the cache holds.

// keyedPost posts evs under key, acknowledging ack unless it is empty, as
// JSON or as a COHWIRE1 frame, and returns the status and the body.
func (c *client) keyedPost(id, key, ack string, evs []trace.Event, wire bool) (int, []byte) {
	c.t.Helper()
	hdr := map[string]string{"Idempotency-Key": key}
	if ack != "" {
		hdr["Idempotency-Ack"] = ack
	}
	var body []byte
	if wire {
		body = serve.AppendWireBatch(nil, evs)
		hdr["Content-Type"], hdr["Accept"] = serve.ContentTypeWire, serve.ContentTypeWire
	} else {
		var err error
		if body, err = json.Marshal(evs); err != nil {
			c.t.Fatal(err)
		}
	}
	code, _, data := c.doRaw("POST", "/v1/sessions/"+id+"/events", body, hdr)
	return code, data
}

// wantAcknowledged fails unless a post got the 409 that refuses an
// acknowledged key.
func wantAcknowledged(t *testing.T, what string, code int, body []byte) {
	t.Helper()
	var env serve.ErrorResponse
	if code != http.StatusConflict || json.Unmarshal(body, &env) != nil || env.Code != serve.CodeKeyAcknowledged {
		t.Fatalf("%s: status %d: %s; want 409 coded %q", what, code, body, serve.CodeKeyAcknowledged)
	}
}

// TestAckedKeyRefused: once a later post acknowledges a key, a stale
// duplicate of it gets 409 coded idempotency_key_acknowledged in either
// encoding, trains nothing and counts no replay, while the acknowledging
// key still replays. A copy restored from the session's snapshot,
// asking for another shard count, refuses and replays the same keys.
func TestAckedKeyRefused(t *testing.T) {
	reg := obs.New()
	srv := serve.NewServer(serve.Options{Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	replays := reg.Counter("serve_idempotent_replays_total")
	evs := sharingEvents(200)

	for _, wire := range []bool{false, true} {
		id := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 2}).ID
		if code, body := c.keyedPost(id, "k1", "", evs, wire); code != http.StatusOK {
			t.Fatalf("wire %v: post k1: status %d: %s", wire, code, body)
		}
		code, second := c.keyedPost(id, "k2", "k1", evs, wire)
		if code != http.StatusOK {
			t.Fatalf("wire %v: post k2: status %d: %s", wire, code, second)
		}
		events, hits := c.stats(id).Events, replays.Value()
		for _, dupWire := range []bool{false, true} {
			code, body := c.keyedPost(id, "k1", "", evs, dupWire)
			wantAcknowledged(t, fmt.Sprintf("wire %v: duplicate of k1 (wire %v)", wire, dupWire), code, body)
		}
		if got := c.stats(id).Events; got != events {
			t.Fatalf("wire %v: a refused duplicate trained: %d events, want %d", wire, got, events)
		}
		if got := replays.Value(); got != hits {
			t.Fatalf("wire %v: a refusal counted as a replay (%d → %d)", wire, hits, got)
		}
		if code, body := c.keyedPost(id, "k2", "", evs, wire); code != http.StatusOK || !bytes.Equal(body, second) {
			t.Fatalf("wire %v: replay of k2: status %d, bytes differ from the original reply", wire, code)
		}

		data, _ := c.snapshot(id)
		twin := id + "-twin"
		c.restore(twin, data, 3)
		code, body := c.keyedPost(twin, "k1", "", evs, wire)
		wantAcknowledged(t, fmt.Sprintf("wire %v: duplicate of k1 on the restored copy", wire), code, body)
		if code, body := c.keyedPost(twin, "k2", "", evs, wire); code != http.StatusOK || !bytes.Equal(body, second) {
			t.Fatalf("wire %v: replay of k2 on the restored copy: status %d, bytes differ", wire, code)
		}
		if got := c.stats(twin).Events; got != events {
			t.Fatalf("wire %v: the restored copy trained a duplicate: %d events, want %d", wire, got, events)
		}
	}
}

// TestAckedEntryLayout: an acknowledged entry is written as its key and
// MaxBatchEvents+1 where a reply's count would be, in its place in the
// cache order; the section restores, asking for another shard count,
// and snapshots back byte for byte.
func TestAckedEntryLayout(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 2}).ID
	evs := sharingEvents(5)
	c.keyedPost(id, "k-a", "", evs, true)
	code, frame := c.keyedPost(id, "k-b", "k-a", evs, true)
	if code != http.StatusOK {
		t.Fatalf("post k-b: status %d: %s", code, frame)
	}
	preds, err := serve.DecodeWireReplyInto(frame, []uint64(nil))
	if err != nil {
		t.Fatal(err)
	}

	want := binary.AppendUvarint(nil, 1) // version
	for _, v := range []uint64{1, serve.DefaultBatchSize, 0, serve.DefaultMaxPending, 2} {
		want = binary.AppendUvarint(want, v) // tuning, flush slot, entry count
	}
	want = append(binary.AppendUvarint(want, 3), "k-a"...)
	want = binary.AppendUvarint(want, serve.MaxBatchEvents+1)
	want = append(binary.AppendUvarint(want, 3), "k-b"...)
	want = binary.AppendUvarint(want, uint64(len(preds)))
	for _, p := range preds {
		want = binary.AppendUvarint(want, p)
	}
	orig, snap := c.snapshot(id)
	if !bytes.Equal(snap.Extra, want) {
		t.Fatalf("Extra section with an acknowledged entry:\n got %x\nwant %x", snap.Extra, want)
	}
	if again, err := serve.ReencodeSessionExtra(want); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("re-encoding the section: %x (%v)", again, err)
	}
	c.restore("twin", orig, 1)
	twinData, _ := c.snapshot("twin")
	c.restore("back", twinData, 2)
	if back, _ := c.snapshot("back"); !bytes.Equal(back, orig) {
		t.Fatal("snapshot → restore at 1 shard → restore at 2 shards → snapshot is not byte-identical")
	}
}

// TestStatsMeasureIdemCache: stats count the cache's keys and the reply
// bytes it holds. A Go client acknowledges every reply it holds but its
// last, so after n posts the cache holds n keys and one frame; raw keyed
// posts that acknowledge nothing leave every frame in it.
func TestStatsMeasureIdemCache(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	cl := resclient.New(resclient.Options{BaseURL: c.base, Binary: true, Sleep: func(time.Duration) {}})

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var last []uint64
	for i := 0; i < n; i++ {
		if last, err = cl.PostEvents(sess.ID, sharingEvents(50+30*i)); err != nil {
			t.Fatal(err)
		}
	}
	lastPreds := make([]bitmap.Bitmap, len(last))
	for i, p := range last {
		lastPreds[i] = bitmap.Bitmap(p)
	}
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(serve.AppendWireReply(nil, lastPreds)); st.IdempotencyKeys != n || st.IdempotencyReplyBytes != want {
		t.Fatalf("Go client: %d keys holding %d reply bytes, want %d keys holding the last frame's %d",
			st.IdempotencyKeys, st.IdempotencyReplyBytes, n, want)
	}

	raw := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"}).ID
	total := 0
	for i := 0; i < n; i++ {
		code, frame := c.keyedPost(raw, fmt.Sprintf("raw-%d", i), "", sharingEvents(50+30*i), true)
		if code != http.StatusOK {
			t.Fatalf("raw post %d: status %d", i, code)
		}
		total += len(frame)
	}
	if st := c.stats(raw); st.IdempotencyKeys != n || st.IdempotencyReplyBytes != total {
		t.Fatalf("raw posts: %d keys holding %d reply bytes, want %d holding %d",
			st.IdempotencyKeys, st.IdempotencyReplyBytes, n, total)
	}
}
