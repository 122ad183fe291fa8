package serve

// White-box tests for the idempotency-cache invariants: eviction drops
// the oldest key, a post that fails caches nothing, an acknowledgement
// touches only a cached key, and the snapshot section's decoder refuses
// what it cannot re-encode.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cohpredict/internal/codec"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

// poison fails the session as a kernel panic would.
func poison(s *Session) {
	s.tableMu.Lock()
	s.eng.fail = fmt.Errorf("%w: post panicked: test", ErrShardFailed)
	s.tableMu.Unlock()
}

func newTestSession(t *testing.T, shards int) *Session {
	t.Helper()
	sc, err := core.ParseScheme("last(add8)1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("t", SessionConfig{
		Scheme:  sc,
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Shards:  shards,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestIdemEvictionDropsOldest: past maxIdemKeys keys the cache evicts
// its oldest, so it never holds more. The newest key still replays, and a
// post under the evicted key trains again and evicts the next oldest.
func TestIdemEvictionDropsOldest(t *testing.T) {
	s := newTestSession(t, 1)
	evs := []trace.Event{{PID: 1, Dir: 0, Addr: 64, FutureReaders: 2}}
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for i := 0; i <= maxIdemKeys; i++ {
		if _, err := s.PostFrame(key(i), evs, new(WireBuf)); err != nil {
			t.Fatal(err)
		}
	}
	cached := func(k string) bool {
		s.tableMu.Lock()
		defer s.tableMu.Unlock()
		if len(s.eng.idem) != len(s.eng.idemOrder) {
			t.Fatalf("the cache maps %d keys and orders %d", len(s.eng.idem), len(s.eng.idemOrder))
		}
		_, ok := s.eng.idem[k]
		return ok
	}
	if st := s.Stats(); st.IdemKeys != maxIdemKeys || cached(key(0)) || !cached(key(1)) {
		t.Fatalf("after %d keys: %d cached, the oldest cached %v, the next %v; want %d, the oldest alone evicted",
			maxIdemKeys+1, st.IdemKeys, cached(key(0)), cached(key(1)), maxIdemKeys)
	}

	events := s.Stats().Events
	if _, err := s.PostFrame(key(maxIdemKeys), evs, new(WireBuf)); err != nil || s.Stats().Events != events {
		t.Fatalf("the newest key: err %v, events %d → %d; want a replay", err, events, s.Stats().Events)
	}
	if _, err := s.PostFrame(key(0), evs, new(WireBuf)); err != nil || s.Stats().Events != events+1 {
		t.Fatalf("the evicted key: err %v, events %d → %d; want it trained again", err, events, s.Stats().Events)
	}
	if st := s.Stats(); st.IdemKeys != maxIdemKeys || !cached(key(0)) || cached(key(1)) {
		t.Fatalf("after the evicted key came back: %d cached; want %d, with the next oldest evicted", st.IdemKeys, maxIdemKeys)
	}
}

// TestPoisonedKeyCachesNothing: a keyed post to a poisoned session fails
// with ErrShardFailed and leaves no trace: its key is not cached and no
// event trains. A retry of the key is admitted and fails the same way.
func TestPoisonedKeyCachesNothing(t *testing.T) {
	s := newTestSession(t, 1)
	evs := []trace.Event{{PID: 1, Dir: 0, Addr: 64, FutureReaders: 2}}
	if _, err := s.PostFrame("warm", evs, new(WireBuf)); err != nil {
		t.Fatal(err)
	}

	poison(s)
	before := s.Stats()
	for i := 0; i < 2; i++ {
		if _, err := s.PostFrame("poisoned", evs, new(WireBuf)); !errors.Is(err, ErrShardFailed) {
			t.Fatalf("post %d of the key: err = %v, want ErrShardFailed", i, err)
		}
	}
	if after := s.Stats(); after != before {
		t.Fatalf("posts to a poisoned session changed its stats: %+v, want %+v", after, before)
	}
}

// TestDecodeSessionExtraBoundsCounts: no count makes the decoder allocate
// more than the bytes behind it can fill. A section of 20 bytes that
// declares one entry of 65535 predictions is rejected without reserving
// room for them, and so is one declaring more keys than it has bytes for.
func TestDecodeSessionExtraBoundsCounts(t *testing.T) {
	for name, extra := range map[string][]byte{
		// version, shards, batch, flush, pending, one key "k", 65535
		// predictions (ff ff 03), then only nine of them.
		"predictions": {1, 1, 0, 0, 0, 1, 1, 'k', 0xff, 0xff, 0x03, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		// 1024 keys (80 08) declared, four bytes behind them.
		"keys": {1, 1, 0, 0, 0, 0x80, 0x08, 1, 'k', 0, 1},
	} {
		if _, err := decodeSessionExtra(extra, true); err == nil {
			t.Fatalf("%s: accepted a count the section cannot back", name)
		}
		const runs = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = decodeSessionExtra(extra, true)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4096 {
			t.Fatalf("%s: rejecting a %d-byte section allocates %d bytes, want under 4 KiB", name, len(extra), per)
		}
	}
}

// TestDecodeSessionExtraCanonical: the section is read with the canonical
// uvarint kernel, so a non-minimal prediction (or any other non-minimal
// field) is rejected — copied verbatim into a reply frame, it would make
// every replay of its key fail the client's decoder.
func TestDecodeSessionExtraCanonical(t *testing.T) {
	valid := []byte{1, 1, 0, 0, 0, 1, 1, 'k', 2, 0x80, 0x01, 5}
	x, err := decodeSessionExtra(valid, true)
	if err != nil {
		t.Fatalf("control section rejected: %v", err)
	}
	if preds, err := DecodeWireReply(x.idem["k"]); err != nil || len(preds) != 2 || preds[0] != 0x80 || preds[1] != 5 {
		t.Fatalf("restored frame decodes to %v (%v), want [0x80 5]", preds, err)
	}
	for _, bad := range [][]byte{
		{1, 1, 0, 0, 0, 1, 1, 'k', 2, 0x80, 0x00, 5}, // non-minimal prediction
		{1, 1, 0, 0, 0, 1, 1, 'k', 0x82, 0x00, 1, 5}, // non-minimal count
		{1, 0x81, 0x00, 0, 0, 0, 0},                  // non-minimal tuning field
	} {
		if _, err := decodeSessionExtra(bad, true); err == nil {
			t.Errorf("accepted non-canonical section %x", bad)
		}
	}
}

// TestAckChangesNothingElse: an acknowledgement takes effect only on a
// cached key. One naming the post's own key, an unknown key or one whose
// post failed by ErrShardFailed changes nothing, and none of them fails
// its post.
func TestAckChangesNothingElse(t *testing.T) {
	s := newTestSession(t, 1)
	evs := []trace.Event{{PID: 1, Dir: 0, Addr: 64, FutureReaders: 2}}
	post := func(key, ack string) ([]byte, error) { return s.postFrame(key, ack, evs, new(WireBuf), nil) }

	first, err := post("own", "own")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := post("own", "own"); err != nil || !bytes.Equal(again, first) {
		t.Fatalf("a post acknowledging its own key: replay got %x (%v), want the original reply", again, err)
	}
	if _, err := post("fresh", "unknown"); err != nil {
		t.Fatalf("a post acknowledging an unknown key failed: %v", err)
	}

	s.tableMu.Lock()
	_, unknownAdded := s.eng.idem["unknown"]
	s.tableMu.Unlock()
	if unknownAdded {
		t.Fatal("acknowledging an unknown key added it to the cache")
	}

	poison(s)
	if _, err := post("poisoned", ""); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("err = %v, want ErrShardFailed", err)
	}
	if _, err := post("after", "poisoned"); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("a post acknowledging a failed entry: err = %v, want the session's ErrShardFailed", err)
	}
	if _, err := post("poisoned", ""); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("replay of a failed entry after its acknowledgement: err = %v, want ErrShardFailed", err)
	}
}

// TestAckedTailIsOutOfRange: the acknowledged entry's marker reads as a
// reply count above MaxBatchEvents, which a decoder that predates it
// refuses, so an older node never restores an acknowledged key as a
// reply.
func TestAckedTailIsOutOfRange(t *testing.T) {
	if c, n, ok := codec.Uvarint(ackedTail); !ok || n != len(ackedTail) || c <= MaxBatchEvents {
		t.Fatalf("acknowledged tail %x reads as count %d (ok %v)", ackedTail, c, ok)
	}
	old := codec.NewReader(ackedTail)
	old.Count(MaxBatchEvents, 1)
	if !errors.Is(old.Err(), codec.ErrCount) {
		t.Fatalf("the reply count read refuses the acknowledged tail with %v, want ErrCount", old.Err())
	}
}

// TestAckRacesReplays: duplicates of a key, a snapshot and a stats read
// racing the key's acknowledgement each see the whole reply or none of
// it — the original frame or ErrKeyAcknowledged — and once the
// acknowledgement has returned, every duplicate is refused. Under the
// race detector this pins that the cache is read under tableMu.
func TestAckRacesReplays(t *testing.T) {
	s := newTestSession(t, 2)
	evs := []trace.Event{{PID: 1, Dir: 0, Addr: 64, FutureReaders: 2}, {PID: 2, Dir: 1, Addr: 128, FutureReaders: 5}}
	want, err := s.postFrame("k", "", evs, new(WireBuf), nil)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Clone(want)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch frame, err := s.postFrame("k", "", evs, new(WireBuf), nil); {
				case errors.Is(err, ErrKeyAcknowledged):
				case err != nil:
					errs <- err
					return
				case !bytes.Equal(frame, want):
					errs <- fmt.Errorf("racer %d: replay got %x, want %x", g, frame, want)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.AppendSnapshot(nil); err != nil {
			errs <- err
		}
		_ = s.Stats()
	}()
	s.acknowledge("k")
	if _, err := s.postFrame("k", "", evs, new(WireBuf), nil); !errors.Is(err, ErrKeyAcknowledged) {
		t.Fatalf("duplicate after the acknowledgement: err = %v, want ErrKeyAcknowledged", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Events; got != uint64(len(evs)) {
		t.Fatalf("trained %d events, want %d: no duplicate may train", got, len(evs))
	}
}
