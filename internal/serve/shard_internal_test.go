package serve

// White-box tests for the shard channel's blocking send. A shard channel
// holds DefaultShardBatch runs, and a post that finds it full parks in
// its send until the worker drains it. Each test holds a worker with an
// injected stall, queues a wave of posts behind it, and reads the channel
// length to prove the wave is queued (and, past the channel's capacity,
// parked) before the worker moves on.

import (
	"errors"
	"fmt"
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

// ownedScheme's 24 address bits give every owner of ownedEvents predictor
// keys of its own.
const ownedScheme = "union(pid+dir+add24)2[forwarded]"

// stallFault stalls one shard micro-batch in ten for up to 200 ms, and
// panics each shard at its panicAfter-th micro-batch (0: never). Each
// test picks a seed whose stalls land on the batches it holds a worker
// with, and names them; a seed that stopped doing so would fail the
// test's waits, not pass it. The returned counter is the injector's
// fault_delays_total, the stalls drawn so far.
func stallFault(seed int64, panicAfter int) (*fault.Injector, *obs.Counter) {
	reg := obs.New()
	return fault.New(fault.Config{
		Seed: seed, Delay: 0.1, MaxDelay: 200 * time.Millisecond, PanicAfter: panicAfter,
	}, reg), reg.Counter("fault_delays_total")
}

func newStallSession(t *testing.T, shards, batch int, inj *fault.Injector) *Session {
	t.Helper()
	sc, err := core.ParseScheme(ownedScheme)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("stall", SessionConfig{
		Scheme:    sc,
		Machine:   core.Machine{Nodes: 16, LineBytes: 64},
		Shards:    shards,
		BatchSize: batch,
		Fault:     inj,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ownedEvents returns 2*perShard events on each of r's shards over
// predictor keys no other owner touches: every line lies in the
// 4096-line range owner alone uses. The second half revisits the first
// half's lines with writer and previous writer swapped, so it predicts
// from entries the first half trained.
func ownedEvents(r *Router, owner, perShard int) []trace.Event {
	var evs []trace.Event
	count := make([]int, r.Shards())
	for line, need := uint64(owner)<<12, r.Shards(); need > 0; line++ {
		pid := uint8(owner % 16)
		ev := trace.Event{
			PID: pid, PC: 20, Dir: uint8(line % 16), Addr: line * 64,
			InvReaders: 1 << ((line + 3) % 16),
			HasPrev:    true, PrevPID: (pid + 1) % 16, PrevPC: 20,
			FutureReaders: 1 << ((line + 5) % 16),
		}
		k := r.RouteEvent(&ev)
		if count[k] == perShard {
			continue
		}
		if count[k]++; count[k] == perShard {
			need--
		}
		evs = append(evs, ev)
	}
	for _, ev := range evs[:len(evs):len(evs)] {
		ev.PID, ev.PrevPID = ev.PrevPID, ev.PID
		evs = append(evs, ev)
	}
	return evs
}

// onShard returns the events of evs that r routes to shard k.
func onShard(r *Router, evs []trace.Event, k int) []trace.Event {
	var out []trace.Event
	for i := range evs {
		if r.RouteEvent(&evs[i]) == k {
			out = append(out, evs[i])
		}
	}
	return out
}

// waitFor polls cond every millisecond and fails the test if it does not
// hold within ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// pendingEvents returns the session's admitted, unprocessed event count.
func pendingEvents(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// wave is a set of posts made at once, one goroutine each.
type wave struct {
	preds [][]bitmap.Bitmap
	errs  []error
	done  chan struct{}
}

func startWave(s *Session, batches [][]trace.Event) *wave {
	w := &wave{
		preds: make([][]bitmap.Bitmap, len(batches)),
		errs:  make([]error, len(batches)),
		done:  make(chan struct{}),
	}
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.preds[i] = make([]bitmap.Bitmap, len(batches[i]))
			w.errs[i] = s.PostInto(batches[i], w.preds[i])
		}(i)
	}
	go func() { wg.Wait(); close(w.done) }()
	return w
}

// wait returns once every post of the wave has, failing the test if one
// hangs.
func (w *wave) wait(t *testing.T) {
	t.Helper()
	select {
	case <-w.done:
	case <-time.After(30 * time.Second):
		t.Fatal("posts hung")
	}
}

// failed checks that every post of the wave returned ErrShardFailed.
func (w *wave) failed(t *testing.T, name string) {
	t.Helper()
	w.wait(t)
	for i, err := range w.errs {
		if !errors.Is(err, ErrShardFailed) {
			t.Fatalf("%s post %d: err = %v, want ErrShardFailed", name, i, err)
		}
	}
}

// TestShardPanicConcurrentPosts drives the panic path with several posts
// in flight across two shards. Seed 1660 stalls shard 0's second
// micro-batch (191 ms) and shard 1's first (199 ms), and no other batch
// this test runs. Shard 0 runs one post alone; then a hold post stalls
// both workers while eight posts, each with one run per shard, queue
// behind them. Shard 0's third batch is all eight runs and meets its
// panic point, so the recover path must release each run exactly once;
// shard 1's second batch takes its eight runs short of the panic point
// and completes them normally. A second wave, on shard 0 alone, then
// meets the dead shard's drain path. Every post must return (none may
// hang, and an extra Done would panic the worker on a negative WaitGroup
// counter) with ErrShardFailed, and Close must report it.
func TestShardPanicConcurrentPosts(t *testing.T) {
	const inFlight, perShard = 8, 8 // a post's run on a shard is 2*perShard events
	inj, delays := stallFault(1660, 3)
	s := newStallSession(t, 2, inFlight*2*perShard, inj)
	posts := make([][]trace.Event, inFlight)
	for i := range posts {
		posts[i] = ownedEvents(s.router, i, perShard)
	}
	hold := ownedEvents(s.router, inFlight, perShard)

	warm := onShard(s.router, hold, 0)
	if err := s.PostInto(warm, make([]bitmap.Bitmap, len(warm))); err != nil {
		t.Fatal(err)
	}
	// The hold post finishes before the panic but may observe it, so
	// only its return is checked.
	held := startWave(s, [][]trace.Event{hold})
	waitFor(t, "the hold post to stall both workers", func() bool { return delays.Value() == 2 })
	first := startWave(s, posts)
	waitFor(t, "the wave to queue behind both stalls", func() bool {
		return len(s.shards[0].in) == inFlight && len(s.shards[1].in) == inFlight
	})
	first.failed(t, "first wave")
	held.wait(t)
	// The healthy shard trains every run it is sent, once.
	want := uint64(len(onShard(s.router, hold, 1)) + inFlight*2*perShard)
	if got := s.Stats().Shards[1].Events; got != want {
		t.Fatalf("healthy shard processed %d events, want the %d of its two batches", got, want)
	}

	second := make([][]trace.Event, inFlight)
	for i := range second {
		second[i] = onShard(s.router, posts[i], 0)
	}
	startWave(s, second).failed(t, "second wave")
	if err := s.Close(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("Close: err = %v, want the shard panic", err)
	}
}

// TestShardPanicParkedPosts is the panic path with more concurrent posts
// than a shard channel holds. Seed 30 stalls the one shard's first
// micro-batch (184 ms), and no other batch this test runs. While a hold
// post stalls the worker, DefaultShardBatch+64 single-run posts arrive:
// the first DefaultShardBatch fill the channel and the rest park in their
// sends. The worker's next batch takes four runs to the panic point, so
// the recover path releases those four while senders are still parked,
// and the drain path releases the rest, each parked sender's run moving
// through the channel as the drain frees a slot. A second wave of as many
// posts then meets the drain path of the dead shard. Every post must
// return with ErrShardFailed, every admitted event must be released, and
// Close must report the failure.
func TestShardPanicParkedPosts(t *testing.T) {
	inj, delays := stallFault(30, 2)
	s := newStallSession(t, 1, 4*2, inj) // ownedEvents(r, i, 1) is a 2-event run
	batches := make([][]trace.Event, DefaultShardBatch+64)
	total := 0
	for i := range batches {
		batches[i] = ownedEvents(s.router, i+1, 1)
		total += len(batches[i])
	}
	holdPost := ownedEvents(s.router, 0, 1)
	total += len(holdPost)

	held := startWave(s, [][]trace.Event{holdPost})
	waitFor(t, "the hold post to stall the worker", func() bool { return delays.Value() == 1 })
	first := startWave(s, batches)
	waitFor(t, "the wave to fill the channel with every post admitted", func() bool {
		return len(s.shards[0].in) == cap(s.shards[0].in) && pendingEvents(s) == total
	})
	first.failed(t, "first wave")
	held.wait(t)
	startWave(s, batches).failed(t, "second wave")
	if n := pendingEvents(s); n != 0 {
		t.Fatalf("%d events still pending after every post returned", n)
	}
	if err := s.Close(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("Close: err = %v, want the shard panic", err)
	}
}

// TestParkedPostsMatchEngine: runs that park in a full shard channel are
// trained exactly once, each in its post's order. Seed 30 stalls shard
// 0's first micro-batch (184 ms) while DefaultShardBatch+64 posters, each
// over predictor keys of its own and with events on every shard, post at
// once: shard 0's channel fills and the remaining posts park in their
// sends, so the worker's next fills take the channel's runs and the
// parked senders' runs together. Each poster's predictions must equal
// eval.Engine over its own events alone, and the session must count
// every event once.
func TestParkedPostsMatchEngine(t *testing.T) {
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			inj, delays := stallFault(30, 0)
			s := newStallSession(t, shards, 0, inj)
			streams := make([][]trace.Event, DefaultShardBatch+65)
			total := 0
			for i := range streams {
				streams[i] = ownedEvents(s.router, i, 2)
				if i == 0 {
					streams[i] = onShard(s.router, streams[i], 0) // the hold post
				}
				total += len(streams[i])
			}

			held := startWave(s, streams[:1])
			waitFor(t, "the hold post to stall shard 0", func() bool { return delays.Value() == 1 })
			posters := startWave(s, streams[1:])
			waitFor(t, "shard 0's channel to fill with every post admitted", func() bool {
				return len(s.shards[0].in) == cap(s.shards[0].in) && pendingEvents(s) == total
			})
			held.wait(t)
			posters.wait(t)
			got := append(held.preds, posters.preds...)
			errs := append(held.errs, posters.errs...)

			nonEmpty := 0
			for i, evs := range streams {
				if errs[i] != nil {
					t.Fatalf("poster %d: %v", i, errs[i])
				}
				eng := eval.NewEngine(s.cfg.Scheme, s.cfg.Machine)
				for j := range evs {
					want := eng.Step(evs[j])
					if got[i][j] != want {
						t.Fatalf("poster %d event %d: served %#x, engine %#x", i, j, got[i][j], want)
					}
					if want != 0 {
						nonEmpty++
					}
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every prediction was empty; the streams train nothing")
			}
			if got := s.Stats().Events; got != uint64(total) {
				t.Fatalf("session counted %d events, want the %d posted", got, total)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
