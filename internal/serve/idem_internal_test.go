package serve

// White-box tests for the idempotency-cache invariants: a snapshot never
// bakes an incomplete entry, eviction never drops an in-flight entry, a
// permanent shard failure keeps its entry so replays fail fast without
// re-training, and an acknowledgement touches only a completed,
// successful entry.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

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

// TestEncodeSessionExtraSkipsIncompleteEntries: only completed, successful
// idempotency entries reach a snapshot. An entry registered by a keyed
// post racing the quiesce (still open, or failed with ErrSnapshotting) must not
// be serialized — a restored session would answer a replay of that key
// with zero predictions and the batch would silently never train.
func TestEncodeSessionExtraSkipsIncompleteEntries(t *testing.T) {
	s := newTestSession(t, 1)
	complete := &idemEntry{done: make(chan struct{}), frame: AppendWireReply(nil, []bitmap.Bitmap{3, 5})}
	close(complete.done)
	open := &idemEntry{done: make(chan struct{})}
	failed := &idemEntry{done: make(chan struct{}), err: errors.New("injected")}
	close(failed.done)
	s.idemMu.Lock()
	s.idem["complete"] = complete
	s.idem["open"] = open
	s.idem["failed"] = failed
	s.idemOrder = append(s.idemOrder, "complete", "open", "failed")
	s.idemMu.Unlock()

	// The section as AppendSnapshot writes it, without the quiesce that
	// would wait for the open entry.
	tuning := SessionTuning{Shards: 1}
	s.idemMu.Lock()
	n, size := idemSize(s.idemOrder, s.idem)
	section := appendIdem(appendExtraHead(nil, tuning, 0, n), s.idemOrder, s.idem)
	s.idemMu.Unlock()
	if head := appendExtraHead(nil, tuning, 0, n); len(section) != len(head)+size {
		t.Fatalf("section is %d bytes, its measured length %d", len(section), len(head)+size)
	}
	extra, err := decodeSessionExtra(section, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(extra.order) != 1 || extra.order[0] != "complete" {
		t.Fatalf("snapshot idem entries = %q, want only the completed one", extra.order)
	}
	if preds, err := DecodeWireReply(extra.idem["complete"].frame); err != nil || len(preds) != 2 {
		t.Fatalf("preds = %v (%v), want the 2 recorded predictions", preds, err)
	}
}

// TestIdemEvictionSkipsInFlight: FIFO eviction removes the oldest
// *completed* entry, never one whose winner is still running — evicting an
// in-flight entry would let a concurrent retry of the same key win the map
// slot and train the batch twice. When every entry is in flight, the cache
// briefly exceeds the cap instead of evicting anything.
func TestIdemEvictionSkipsInFlight(t *testing.T) {
	s := newTestSession(t, 1)
	open := &idemEntry{done: make(chan struct{})}
	s.idemMu.Lock()
	s.idem["open"] = open
	s.idemOrder = append(s.idemOrder, "open")
	for i := 0; i < maxIdemKeys-1; i++ {
		k := fmt.Sprintf("k%04d", i)
		e := &idemEntry{done: make(chan struct{})}
		close(e.done)
		s.idem[k] = e
		s.idemOrder = append(s.idemOrder, k)
	}
	s.idemMu.Unlock()

	// At capacity with the in-flight entry oldest: a fresh key evicts the
	// oldest completed entry, not the open one.
	if _, err := s.PostFrame("fresh", nil, new(WireBuf)); err != nil {
		t.Fatal(err)
	}
	s.idemMu.Lock()
	_, openAlive := s.idem["open"]
	_, oldestAlive := s.idem["k0000"]
	n := len(s.idemOrder)
	s.idemMu.Unlock()
	if !openAlive {
		t.Fatal("eviction removed the in-flight entry")
	}
	if oldestAlive {
		t.Fatal("oldest completed entry survived eviction")
	}
	if n != maxIdemKeys {
		t.Fatalf("cache size %d, want %d", n, maxIdemKeys)
	}

	s2 := newTestSession(t, 1)
	s2.idemMu.Lock()
	for i := 0; i < maxIdemKeys; i++ {
		k := fmt.Sprintf("k%04d", i)
		s2.idem[k] = &idemEntry{done: make(chan struct{})}
		s2.idemOrder = append(s2.idemOrder, k)
	}
	s2.idemMu.Unlock()
	if _, err := s2.PostFrame("fresh", nil, new(WireBuf)); err != nil {
		t.Fatal(err)
	}
	s2.idemMu.Lock()
	n2 := len(s2.idemOrder)
	s2.idemMu.Unlock()
	if n2 != maxIdemKeys+1 {
		t.Fatalf("all-in-flight cache size %d, want %d (no eviction)", n2, maxIdemKeys+1)
	}
}

// TestPostKeyedShardFailureKeepsEntry: a shard worker failure is permanent,
// so a keyed post records it in the idempotency entry instead of releasing
// the key — a replay of the key fails fast without re-enqueueing the batch
// to the shards that are still healthy.
func TestPostKeyedShardFailureKeepsEntry(t *testing.T) {
	s := newTestSession(t, 1)
	evs := []trace.Event{{PID: 1, Dir: 0, Addr: 64, FutureReaders: 2}}
	if _, err := s.PostFrame("warm", evs, new(WireBuf)); err != nil {
		t.Fatal(err)
	}

	s.shards[0].fail.Store(fmt.Errorf("%w: shard 0 worker panicked: test", ErrShardFailed))
	_, err := s.PostFrame("poisoned", evs, new(WireBuf))
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("err = %v, want ErrShardFailed", err)
	}
	s.idemMu.Lock()
	e := s.idem["poisoned"]
	s.idemMu.Unlock()
	if e == nil || !e.completed() || !errors.Is(e.err, ErrShardFailed) {
		t.Fatalf("poisoned entry = %+v, want kept with the recorded failure", e)
	}

	trained := s.Stats().Events
	if _, err := s.PostFrame("poisoned", evs, new(WireBuf)); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("replay err = %v, want the recorded ErrShardFailed", err)
	}
	if got := s.Stats().Events; got != trained {
		t.Fatalf("replay re-trained: %d events, want %d", got, trained)
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
	if preds, err := DecodeWireReply(x.idem["k"].frame); err != nil || len(preds) != 2 || preds[0] != 0x80 || preds[1] != 5 {
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
// completed, successful entry. One naming the post's own key, an unknown
// key, an entry still in flight or one failed by ErrShardFailed changes
// nothing, and none of them fails its post.
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

	open := &idemEntry{done: make(chan struct{})}
	s.idemMu.Lock()
	s.idem["open"] = open
	s.idemOrder = append(s.idemOrder, "open")
	_, unknownAdded := s.idem["unknown"]
	s.idemMu.Unlock()
	if unknownAdded {
		t.Fatal("acknowledging an unknown key added it to the cache")
	}
	if _, err := post("during", "open"); err != nil {
		t.Fatalf("a post acknowledging an in-flight entry failed: %v", err)
	}
	open.frame = AppendWireReply(nil, []bitmap.Bitmap{3, 5})
	close(open.done)
	if frame, err := post("open", ""); err != nil || !bytes.Equal(frame, open.frame) {
		t.Fatalf("an entry acknowledged in flight: replay got %x (%v), want its reply", frame, err)
	}

	s.shards[0].fail.Store(fmt.Errorf("%w: shard 0 worker panicked: test", ErrShardFailed))
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
// race detector this pins that frame is read under idemMu.
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
		if _, err := s.AppendSnapshot(nil); err != nil && !errors.Is(err, ErrSnapshotting) {
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
