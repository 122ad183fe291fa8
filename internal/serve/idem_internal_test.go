package serve

// White-box tests for the idempotency-cache invariants the review pinned
// down: a snapshot never bakes an incomplete entry, eviction never drops
// an in-flight entry, and a permanent shard failure keeps its entry so
// replays fail fast without re-training.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"cohpredict/internal/bitmap"
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
	extra, err := decodeSessionExtra(section)
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
		if _, err := decodeSessionExtra(extra); err == nil {
			t.Fatalf("%s: accepted a count the section cannot back", name)
		}
		const runs = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = decodeSessionExtra(extra)
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
	x, err := decodeSessionExtra(valid)
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
		if _, err := decodeSessionExtra(bad); err == nil {
			t.Errorf("accepted non-canonical section %x", bad)
		}
	}
}
