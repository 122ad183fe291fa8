package serve

// White-box tests for the one-lock post path: a panic in the kernel
// poisons the session for the post that hit it and every post after,
// and a snapshot racing keyed posts carries exactly the keys whose
// events its table holds.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/obs"
	"cohpredict/internal/trace"
)

// lockEvents returns n valid 16-node events that train and predict, the
// i-th of batch b distinct from every other batch's.
func lockEvents(b, n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		pid := uint8((b + i) % 16)
		evs[i] = trace.Event{
			PID: pid, PC: uint64(20 + i%7), Dir: uint8(i % 16), Addr: uint64(b*n+i%97) * 64,
			InvReaders: 1 << uint((i*5+3)%16),
			HasPrev:    true, PrevPID: (pid + 1) % 16, PrevPC: uint64(20 + (i+1)%7),
			FutureReaders: 1 << uint((i+5)%16),
		}
	}
	return evs
}

func newLockSession(t *testing.T, inj *fault.Injector, om *serveMetrics) *Session {
	t.Helper()
	sc, err := core.ParseScheme("union(pid+dir+add10)2[forwarded]")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("lock", SessionConfig{
		Scheme:  sc,
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Fault:   inj,
	}, om)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPostPanicPoisonsSession: concurrent keyed posts meet a kernel panic
// injected at the panicAfter-th post to take the table lock. Each
// admitted post draws the panic point once, so exactly the posts that
// took the lock before it succeed, with their events trained once; the
// panicking post and every later one fail with ErrShardFailed, later
// posts and a replay of a failed key included, and every Close reports
// the panic. The session starts no goroutine of its own.
func TestPostPanicPoisonsSession(t *testing.T) {
	const posters, perPoster, batch, panicAfter = 4, 8, 64, 11
	reg := obs.New()
	inj := fault.New(fault.Config{Seed: 1, PanicAfter: panicAfter}, reg)
	before := runtime.NumGoroutine()
	s := newLockSession(t, inj, newServeMetrics(reg))
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("creating a session started %d goroutines", n-before)
	}

	errs := make([]error, posters*perPoster)
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				k := g*perPoster + i
				_, errs[k] = s.postFrame(fmt.Sprintf("k%d", k), "", lockEvents(k, batch), new(wireBuf), nil)
			}
		}(g)
	}
	wg.Wait()

	ok := 0
	for k, err := range errs {
		switch {
		case err == nil:
			ok++
		case !errors.Is(err, ErrShardFailed):
			t.Fatalf("post %d: err = %v, want nil or ErrShardFailed", k, err)
		}
	}
	if ok != panicAfter-1 {
		t.Fatalf("%d posts succeeded, want the %d that took the lock before the panic", ok, panicAfter-1)
	}
	if got := s.Stats().Events; got != uint64(ok*batch) {
		t.Fatalf("session trained %d events, want %d", got, ok*batch)
	}
	if c := reg.Snapshot().Counters; c["fault_panics_total"] != 1 || c["serve_shard_panics_total"] != 1 {
		t.Fatalf("panics injected %d, recovered %d; want 1 and 1", c["fault_panics_total"], c["serve_shard_panics_total"])
	}
	for k, err := range errs {
		if err != nil {
			if _, err := s.postFrame(fmt.Sprintf("k%d", k), "", lockEvents(k, batch), new(wireBuf), nil); !errors.Is(err, ErrShardFailed) {
				t.Fatalf("replay of failed key k%d: err = %v, want ErrShardFailed", k, err)
			}
			break
		}
	}
	if err := s.PostInto(lockEvents(99, batch), make([]bitmap.Bitmap, batch)); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("post after the panic: err = %v, want ErrShardFailed", err)
	}
	if _, err := s.AppendSnapshot(nil); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("snapshot of a poisoned session: err = %v, want ErrShardFailed", err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); !errors.Is(err, ErrShardFailed) {
			t.Fatalf("Close %d: err = %v, want the kernel panic", i, err)
		}
	}
	if got := s.Stats().Events; got != uint64(ok*batch) {
		t.Fatalf("after the panic the session trained %d events, want %d", got, ok*batch)
	}
	// A poster's goroutine may still be on its way out after its Done.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines outlive the session's posts", n-before)
	}
}

// TestSnapshotRaceExactlyOnce: keyed posts race snapshots of their
// session. Each distinct snapshot is restored into a second session and
// every key is posted to it again: a key the snapshot carries must replay
// its original reply without training, and every other key must train
// exactly once, so the restored session's events plus those the re-posts
// train equal the keys' events. A keyed post caches its reply frame
// before it releases the table lock; caching it after would let a
// snapshot hold a post's events without its key, and a re-post would
// train them twice.
func TestSnapshotRaceExactlyOnce(t *testing.T) {
	const posters, perPoster, batch, keep = 4, 12, 1024, 8
	s := newLockSession(t, nil, nil)
	defer s.Close()
	n := posters * perPoster
	batches := make([][]trace.Event, n)
	for k := range batches {
		batches[k] = lockEvents(k, batch)
	}
	frames := make([][]byte, n)

	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				k := g + i*posters
				frame, err := s.postFrame(fmt.Sprintf("k%d", k), "", batches[k], new(wireBuf), nil)
				if err != nil {
					t.Error(err)
					return
				}
				frames[k] = bytes.Clone(frame)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }() // no poster may outlive a failed test
	// Every snapshot must hold exactly the events of the keys it
	// carries; one per distinct state is kept for the re-post check.
	var states [][]byte
	lastEvents := ^uint64(0)
	for racing := true; racing; {
		select {
		case <-done:
			racing = false
		default:
		}
		data, err := s.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, extra := decodeRaceSnapshot(t, data)
		carried := 0
		for _, key := range extra.order {
			carried += len(batches[raceKey(t, key)])
		}
		if snap.Events != uint64(carried) {
			t.Fatalf("a snapshot holds %d events, but the keys it carries posted %d", snap.Events, carried)
		}
		if snap.Events != lastEvents {
			lastEvents = snap.Events
			states = append(states, data)
		}
	}
	if t.Failed() {
		return
	}
	if len(states) < 3 {
		t.Fatalf("only %d distinct snapshot states; the race proved nothing", len(states))
	}

	for i := 0; i < keep && i < len(states); i++ {
		data := states[i*len(states)/min(keep, len(states))]
		snap, extra := decodeRaceSnapshot(t, data)
		r, err := NewSessionFromSnapshot("r", snap, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		trained := uint64(0)
		for k := range batches {
			key := fmt.Sprintf("k%d", k)
			before := r.Stats().Events
			frame, err := r.postFrame(key, "", batches[k], new(wireBuf), nil)
			if err != nil {
				t.Fatal(err)
			}
			grew := r.Stats().Events - before
			if _, ok := extra.idem[key]; ok {
				if grew != 0 || !bytes.Equal(frame, frames[k]) {
					t.Fatalf("snapshot %d: key %s it carries trained %d events on re-post (reply replayed: %v)",
						i, key, grew, bytes.Equal(frame, frames[k]))
				}
				continue
			}
			if grew != uint64(len(batches[k])) {
				t.Fatalf("snapshot %d: key %s it lacks trained %d events, want %d", i, key, grew, len(batches[k]))
			}
			trained += grew
		}
		if got, want := snap.Events+trained, uint64(n*batch); got != want {
			t.Fatalf("snapshot %d: restored %d events and the re-posts trained %d, want %d in all", i, snap.Events, trained, want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeRaceSnapshot decodes a snapshot and its session section.
func decodeRaceSnapshot(t *testing.T, data []byte) (*eval.Snapshot, *sessionExtra) {
	t.Helper()
	snap, err := eval.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := decodeSessionExtra(snap.Extra, true)
	if err != nil {
		t.Fatal(err)
	}
	return snap, extra
}

// raceKey returns the batch index of key "k<index>".
func raceKey(t *testing.T, key string) int {
	t.Helper()
	var k int
	if _, err := fmt.Sscanf(key, "k%d", &k); err != nil {
		t.Fatal(err)
	}
	return k
}
