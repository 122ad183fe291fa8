package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/codec"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// The idempotency cache keeps each keyed post's COHWIRE1 reply frame.
// These tests pin what that must not change: a replay answers with the
// original predictions whichever transport carried either attempt, the
// snapshot's Extra section keeps its version-1 layout byte for byte, and
// a warm keyed post costs its frame rather than a bitmap per event.

// sharingEvents is hammerEvents with readers to learn from: each store
// invalidates one reader, spread over all sixteen nodes, so the predicted
// bitmaps take 1-, 2- and 3-byte uvarints.
func sharingEvents(n int) []trace.Event {
	evs := hammerEvents(n, 16)
	for i := range evs {
		evs[i].InvReaders = 1 << uint((i*5+3)%16)
	}
	return evs
}

// postPreds posts evs under key as JSON or as a COHWIRE1 frame and
// returns the predictions from the reply.
func (c *client) postPreds(id, key string, evs []trace.Event, wire bool) []uint64 {
	c.t.Helper()
	preds, err := c.tryPostPreds(id, key, evs, wire)
	if err != nil {
		c.t.Fatal(err)
	}
	return preds
}

// tryPostPreds is postPreds returning its failure, so that goroutines
// other than the test's can post.
func (c *client) tryPostPreds(id, key string, evs []trace.Event, wire bool) ([]uint64, error) {
	hdr := map[string]string{"Idempotency-Key": key}
	var body []byte
	if wire {
		body = serve.AppendWireBatch(nil, evs)
		hdr["Content-Type"], hdr["Accept"] = serve.ContentTypeWire, serve.ContentTypeWire
	} else {
		var err error
		if body, err = json.Marshal(evs); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequest("POST", c.base+"/v1/sessions/"+id+"/events", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("post %s (wire %v): status %d: %s", key, wire, resp.StatusCode, data)
	}
	if wire {
		return serve.DecodeWireReplyInto(data, []uint64(nil))
	}
	var er serve.EventsResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return nil, fmt.Errorf("post %s: %w: %s", key, err, data)
	}
	return er.Predictions, nil
}

// TestIdemReplayCrossTransport: a key first posted as JSON and retried as
// COHWIRE1, or the reverse, replays the original predictions, counts one
// replay, and never trains the batch a second time.
func TestIdemReplayCrossTransport(t *testing.T) {
	reg := obs.New()
	srv := serve.NewServer(serve.Options{Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 2}).ID
	replays := reg.Counter("serve_idempotent_replays_total")
	evs := sharingEvents(300)

	for _, firstWire := range []bool{false, true} {
		key := fmt.Sprintf("cross-%v", firstWire)
		first := c.postPreds(id, key, evs, firstWire)
		if slices.Max(first) == 0 {
			t.Fatalf("%s: every prediction is empty; the replay check needs real bitmaps", key)
		}
		events, hits := c.stats(id).Events, replays.Value()
		again := c.postPreds(id, key, evs, !firstWire)
		if len(again) != len(first) {
			t.Fatalf("%s: replay returned %d predictions, original %d", key, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("%s: replayed prediction %d = %#x, original %#x", key, i, again[i], first[i])
			}
		}
		if got := replays.Value(); got != hits+1 {
			t.Fatalf("%s: serve_idempotent_replays_total moved %d → %d, want one replay", key, hits, got)
		}
		if got := c.stats(id).Events; got != events {
			t.Fatalf("%s: replay trained the engine: %d events, want %d", key, got, events)
		}
	}
}

// TestIdemConcurrentSameKey: posts racing on one key — through the
// session call the events route makes and through HTTP posts in either
// encoding — train the batch once, and every one of them gets the
// winner's reply: the same frame bytes, or the predictions decoded from
// them. In the stalled input every admitted post stalls at the chaos
// delay point, so duplicates pass the lookup before admission while the
// first post is still in flight, and only the lookup under the table
// lock keeps them from training.
func TestIdemConcurrentSameKey(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault *fault.Injector
	}{
		{"unstalled", nil},
		{"stalled", fault.New(fault.Config{Seed: 3, Delay: 1, MaxDelay: 20 * time.Millisecond}, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := serve.NewServer(serve.Options{Fault: tc.fault})
			defer srv.Shutdown()
			c, closeTS := newClient(t, srv)
			defer closeTS()
			id := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1", Shards: 4}).ID
			sess := srv.SessionByID(id)
			evs := sharingEvents(512)
			if _, err := sess.PostFrame("warm", evs, new(serve.WireBuf)); err != nil {
				t.Fatal(err)
			}

			const racers = 8
			frames := make([][]byte, racers)
			preds := make([][]uint64, racers)
			errs := make([]error, racers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < racers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					if g%2 == 0 {
						frames[g], errs[g] = sess.PostFrame("race-key", evs, new(serve.WireBuf))
						return
					}
					preds[g], errs[g] = c.tryPostPreds(id, "race-key", evs, g%4 == 1)
				}(g)
			}
			close(start)
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("racer %d: %v", g, err)
				}
			}
			want, err := serve.DecodeWireReplyInto(frames[0], []uint64(nil))
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < racers; g++ {
				if g%2 == 0 {
					if !bytes.Equal(frames[g], frames[0]) {
						t.Fatalf("racer %d got different frame bytes", g)
					}
					continue
				}
				if !slices.Equal(preds[g], want) {
					t.Fatalf("racer %d got predictions that differ from the cached frame", g)
				}
			}
			if got := sess.Stats().Events; got != 2*uint64(len(evs)) {
				t.Fatalf("trained %d events, want %d: the racing key must train once", got, 2*len(evs))
			}
		})
	}
}

// TestReplayAfterClose: a closed session still answers a duplicate of a
// cached key with the original frame, since the key is looked up before
// the post is admitted, and refuses a new key with ErrDraining.
func TestReplayAfterClose(t *testing.T) {
	sess, err := serve.NewSession("closed", serve.SessionConfig{
		Scheme: mustScheme(t, "last(add8)1"), Machine: core.Machine{Nodes: 16, LineBytes: 64},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	evs := sharingEvents(64)
	want, err := sess.PostFrame("k", evs, new(serve.WireBuf))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if frame, err := sess.PostFrame("k", evs, new(serve.WireBuf)); err != nil || !bytes.Equal(frame, want) {
		t.Fatalf("a duplicate after Close: got %x (%v), want the original frame", frame, err)
	}
	if _, err := sess.PostFrame("new", evs, new(serve.WireBuf)); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("a new key after Close: err = %v, want ErrDraining", err)
	}
	if got := sess.Stats().Events; got != uint64(len(evs)) {
		t.Fatalf("trained %d events, want %d", got, len(evs))
	}
}

// sessionExtraLayout spells out the version-1 Extra section with
// binary.AppendUvarint: version, tuning, then each key with its
// prediction count and predictions.
func sessionExtraLayout(shards, batch int, flushNS, pending uint64, keys []string, preds [][]uint64) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = binary.AppendUvarint(b, uint64(shards))
	b = binary.AppendUvarint(b, uint64(batch))
	b = binary.AppendUvarint(b, flushNS)
	b = binary.AppendUvarint(b, pending)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for i, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		b = binary.AppendUvarint(b, uint64(len(preds[i])))
		for _, p := range preds[i] {
			b = binary.AppendUvarint(b, p)
		}
	}
	return b
}

func (c *client) snapshot(id string) ([]byte, *eval.Snapshot) {
	c.t.Helper()
	code, _, data := c.doRaw("GET", "/v1/sessions/"+id+"/snapshot", nil, nil)
	if code != http.StatusOK {
		c.t.Fatalf("snapshot %s: status %d: %s", id, code, data)
	}
	snap, err := eval.DecodeSnapshot(data)
	if err != nil {
		c.t.Fatal(err)
	}
	return data, snap
}

func (c *client) restore(id string, data []byte, shards int) {
	c.t.Helper()
	path := fmt.Sprintf("/v1/sessions/%s/snapshot?shards=%d", id, shards)
	if code, _, body := c.doRaw("PUT", path, data, nil); code != http.StatusCreated {
		c.t.Fatalf("restore %s: status %d: %s", id, code, body)
	}
}

// TestSnapshotExtraLayoutPinned: for a cache whose predictions take 1-,
// 2- and 3-byte uvarints, the snapshot's Extra section is exactly the
// version-1 layout, with 0 in the retired flush slot even for a session
// created with the old default deadline, and 1 in the shards word
// whatever count the session asked for. A restore asking for another
// shard count snapshots to the same layout, restoring it back snapshots
// byte-identical to the original, and a replay after the restore serves
// the original reply bytes without training.
func TestSnapshotExtraLayoutPinned(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{
		Scheme: "last(add8)1", Shards: 2, BatchSize: 64, FlushMicros: 200, MaxPending: 4096,
	}).ID

	keys := []string{"k-a", "k-b", "k-c"}
	batches := [][]trace.Event{sharingEvents(40), sharingEvents(300), sharingEvents(7)}
	frames := make([][]byte, len(keys))
	preds := make([][]uint64, len(keys))
	widths := map[int]bool{}
	for i, k := range keys {
		hdr := map[string]string{"Content-Type": serve.ContentTypeWire, "Idempotency-Key": k}
		code, _, body := c.doRaw("POST", "/v1/sessions/"+id+"/events", serve.AppendWireBatch(nil, batches[i]), hdr)
		if code != http.StatusOK {
			t.Fatalf("post %s: status %d", k, code)
		}
		frames[i] = body
		p, err := serve.DecodeWireReplyInto(body, []uint64(nil))
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
		for _, v := range p {
			widths[codec.UvarintLen(v)] = true
		}
	}
	if !widths[1] || !widths[2] || !widths[3] {
		t.Fatalf("prediction widths %v: the pin needs 1-, 2- and 3-byte uvarints", widths)
	}

	orig, snap := c.snapshot(id)
	if want := sessionExtraLayout(1, 64, 0, 4096, keys, preds); !bytes.Equal(snap.Extra, want) {
		t.Fatalf("Extra section changed layout:\n got %x\nwant %x", snap.Extra, want)
	}

	c.restore("twin", orig, 3)
	twinData, twin := c.snapshot("twin")
	if want := sessionExtraLayout(1, 64, 0, 4096, keys, preds); !bytes.Equal(twin.Extra, want) {
		t.Fatalf("Extra section restored asking for 3 shards:\n got %x\nwant %x", twin.Extra, want)
	}
	c.restore("back", twinData, 2)
	if back, _ := c.snapshot("back"); !bytes.Equal(back, orig) {
		t.Fatal("snapshot → restore at 3 shards → restore at 2 shards → snapshot is not byte-identical")
	}

	events := c.stats("twin").Events
	for i, k := range keys {
		hdr := map[string]string{"Content-Type": serve.ContentTypeWire, "Idempotency-Key": k}
		code, _, body := c.doRaw("POST", "/v1/sessions/twin/events", serve.AppendWireBatch(nil, batches[i]), hdr)
		if code != http.StatusOK || !bytes.Equal(body, frames[i]) {
			t.Fatalf("replay of %s after restore: status %d, bytes differ from the original reply", k, code)
		}
	}
	if got := c.stats("twin").Events; got != events {
		t.Fatalf("replays after restore trained the engine: %d events, want %d", got, events)
	}
}

// parentDefaultExtra is the Extra section a session with the parent
// defaults wrote while the flush deadline existed: 2 shards, batch size
// 256, a 200 µs deadline (200000 ns in the flush slot), 16384 pending
// events, and one cached reply.
func parentDefaultExtra() []byte {
	return sessionExtraLayout(2, 256, 200000, 16384, []string{"k"}, [][]uint64{{3, 5}})
}

// TestParentDefaultExtraRestores: an Extra section that carries a flush
// deadline still restores, with the rest of its tuning and its cache, and
// decodes and re-encodes byte for byte. The restored session writes 0 in
// the flush slot of its own snapshots.
func TestParentDefaultExtraRestores(t *testing.T) {
	extra := parentDefaultExtra()
	if again, err := serve.ReencodeSessionExtra(extra); err != nil || !bytes.Equal(again, extra) {
		t.Fatalf("re-encoding the section: %x (%v), want %x", again, err, extra)
	}
	snap := &eval.Snapshot{
		Scheme:  mustScheme(t, "last(add8)1"),
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Extra:   extra,
	}
	sess, err := serve.NewSessionFromSnapshot("old", snap, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if cfg := sess.Config(); cfg.Shards != 1 || cfg.BatchSize != 256 || cfg.MaxPending != 16384 || cfg.Flush != 0 {
		t.Fatalf("restored tuning: shards %d, batch %d, pending %d, flush %v",
			cfg.Shards, cfg.BatchSize, cfg.MaxPending, cfg.Flush)
	}
	again, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := sessionExtraLayout(1, 256, 0, 16384, []string{"k"}, [][]uint64{{3, 5}}); !bytes.Equal(again.Extra, want) {
		t.Fatalf("restored session's Extra section:\n got %x\nwant %x", again.Extra, want)
	}
}

// TestKeyedWirePostAllocs pins what a warm keyed binary post costs: its
// reply frame, kept by the idempotency cache, plus a constant. A cache of
// predictions kept as bitmaps costs 8 bytes per event on its own.
func TestKeyedWirePostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts on purpose")
	}
	sc, err := core.ParseScheme("last(add8)1")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := serve.NewSession("mem", serve.SessionConfig{
		Scheme: sc, Machine: core.Machine{Nodes: 16, LineBytes: 64}, Shards: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const events, posts = 4096, 50
	evs := sharingEvents(events)
	keys := make([]string, posts+4)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	buf := new(serve.WireBuf)
	for _, k := range keys[posts:] { // warm the buffers, the pools and the cache
		if _, err := sess.PostFrame(k, evs, buf); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	frameBytes := 0
	for _, k := range keys[:posts] {
		frame, err := sess.PostFrame(k, evs, buf)
		if err != nil {
			t.Fatal(err)
		}
		frameBytes += len(frame)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / posts / events
	t.Logf("%.2f bytes allocated per event; frames average %.2f bytes per event",
		perEvent, float64(frameBytes)/posts/events)
	if perEvent >= 3 {
		t.Fatalf("a warm keyed 4096-event post allocates %.2f bytes per event, want under 3", perEvent)
	}
}

// FuzzDecodeSessionExtra drives the snapshot Extra decoder with arbitrary
// bytes: it must never panic, and every section it accepts must re-encode
// byte for byte — so no two encodings of a cache are both accepted, and a
// restored frame replays exactly what the client's canonical decoder
// accepts.
func FuzzDecodeSessionExtra(f *testing.F) {
	sc, err := core.ParseScheme("last(add8)1")
	if err != nil {
		f.Fatal(err)
	}
	sess, err := serve.NewSession("seed", serve.SessionConfig{
		Scheme: sc, Machine: core.Machine{Nodes: 16, LineBytes: 64}, Shards: 2,
	}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, n := range []int{0, 3, 40} {
		if _, err := sess.PostFrame(fmt.Sprintf("seed-%d", i), sharingEvents(n), new(serve.WireBuf)); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	sess.Acknowledge("seed-1")
	acked, err := sess.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Extra)
	f.Add([]byte{1, 1, 0, 0, 0, 0})                           // no cache
	f.Add([]byte{1, 1, 0, 0, 0, 1, 1, 'k', 1, 0x80, 0x00})    // non-minimal prediction
	f.Add([]byte{1, 1, 0, 0, 0, 1, 1, 'k', 0xff, 0xff, 0x03}) // 65535 predictions declared
	f.Add([]byte{2})
	f.Add(parentDefaultExtra())

	// Acknowledged entries: the key, then MaxBatchEvents+1 for a count.
	f.Add(acked.Extra)                                                      // between two replies
	f.Add([]byte{1, 1, 0, 0, 0, 1, 1, 'k', 0x81, 0x80, 0x04})               // alone
	f.Add([]byte{1, 1, 0, 0, 0, 2, 1, 'a', 0x81, 0x80, 0x04, 1, 'b', 1, 5}) // then a reply
	f.Add([]byte{1, 1, 0, 0, 0, 1, 1, 'k', 0x82, 0x80, 0x04})               // one past the marker
	f.Add([]byte{1, 1, 0, 0, 0, 1, 1, 'k', 0x81, 0x80, 0x84, 0x00})         // the marker, non-minimal
	f.Fuzz(func(t *testing.T, data []byte) {
		again, err := serve.ReencodeSessionExtra(data)
		if err != nil || len(data) == 0 {
			return
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted Extra section is not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}
