package serve_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/fault"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

const dispatchScheme = "union(pid+dir+add10)2[forwarded]"

// dispatchCases are the two regimes a post's runs meet at the shards: bulk
// batches whose runs fill a micro-batch on arrival under the default
// deadline, and small batches at flush-when-idle.
var dispatchCases = []struct {
	name  string
	batch int
	flush time.Duration
}{
	{"batch=4096/flush=default", 4096, serve.DefaultFlushMicros * time.Microsecond},
	{"batch=64/flush=idle", 64, 0},
}

// newDispatchSession builds a standalone session and warms it with one
// post of evs, so the predictor table holds every key evs touches and
// the post pool holds scratch of the working size.
func newDispatchSession(tb testing.TB, shards int, flush time.Duration, evs []trace.Event, preds []bitmap.Bitmap) *serve.Session {
	tb.Helper()
	sc, err := core.ParseScheme(dispatchScheme)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := serve.NewSession("dispatch", serve.SessionConfig{
		Scheme:  sc,
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Shards:  shards,
		Flush:   flush,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sess.PostInto(evs, preds); err != nil {
		tb.Fatal(err)
	}
	return sess
}

// TestSessionPostIntoAllocFree pins the dispatch layer's allocation-free
// claim: on a warm session, a post routes, splits, dispatches and waits
// for its runs without allocating, and the shard workers process them
// without allocating either (AllocsPerRun counts every goroutine). The
// race detector drops a share of sync.Pool puts on purpose, so the pin
// only holds in a normal build.
func TestSessionPostIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse by design")
	}
	for _, dc := range dispatchCases {
		evs := hammerEvents(dc.batch, 16)
		preds := make([]bitmap.Bitmap, len(evs))
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", dc.name, shards), func(t *testing.T) {
				sess := newDispatchSession(t, shards, dc.flush, evs, preds)
				defer sess.Close()
				var postErr error
				allocs := testing.AllocsPerRun(50, func() {
					if err := sess.PostInto(evs, preds); err != nil {
						postErr = err
					}
				})
				if postErr != nil {
					t.Fatal(postErr)
				}
				if allocs != 0 {
					t.Fatalf("PostInto allocates %.1f times per post on a warm session, want 0", allocs)
				}
			})
		}
	}
}

// TestShardPanicConcurrentPosts drives the panic path with several posts
// in flight across two shards. Shard 0 is warmed to one batch short of
// the injector's panic point with posts that touch it alone; then eight
// posts, each with one run per shard, race in. Shard 0's batch size is
// all eight of its runs, so the panicking batch holds every concurrent
// post and the recover path must release each run exactly once; shard 1
// never reaches the panic point and completes its runs normally. A second
// wave then meets the dead shard's drain path. Every post must return
// (none may hang, and an extra Done would panic the worker on a negative
// WaitGroup counter) with ErrShardFailed, and Close must report it.
func TestShardPanicConcurrentPosts(t *testing.T) {
	const (
		inFlight = 8
		perShard = 16 // events per post on each shard
		warm     = 9  // single-shard posts before the concurrent wave
	)
	sc := mustScheme(t, dispatchScheme)
	m := core.Machine{Nodes: 16, LineBytes: 64}
	router := serve.NewRouter(sc, m, 2)
	var byShard [2][]trace.Event
	for _, ev := range hammerEvents(4096, 16) {
		k := router.RouteEvent(&ev)
		byShard[k] = append(byShard[k], ev)
	}
	if len(byShard[0]) < inFlight*perShard || len(byShard[1]) < inFlight*perShard {
		t.Fatalf("generator routes %d/%d events to the two shards, want %d each",
			len(byShard[0]), len(byShard[1]), inFlight*perShard)
	}
	batch := inFlight * perShard
	posts := make([][]trace.Event, inFlight)
	for i := range posts {
		for j := 0; j < perShard; j++ {
			posts[i] = append(posts[i], byShard[0][i*perShard+j], byShard[1][i*perShard+j])
		}
	}

	sess, err := serve.NewSession("panic", serve.SessionConfig{
		Scheme:    sc,
		Machine:   m,
		Shards:    2,
		BatchSize: batch,
		Flush:     time.Second, // fallback only: every batch fills first
		Fault:     fault.New(fault.Config{Seed: 1, PanicAfter: warm + 1}, nil),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A warm post carries a full batch for shard 0, so it flushes on
	// arrival and counts exactly one panic-point call there.
	for i := 0; i < warm; i++ {
		if _, err := sess.Post(byShard[0][:batch]); err != nil {
			t.Fatalf("warm post %d: %v", i, err)
		}
	}

	wave := func() []error {
		errs := make([]error, inFlight)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range posts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, errs[i] = sess.Post(posts[i])
			}(i)
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("posts hung after a shard panic")
		}
		return errs
	}
	for w := 0; w < 2; w++ {
		for i, err := range wave() {
			if !errors.Is(err, serve.ErrShardFailed) {
				t.Fatalf("wave %d post %d: err = %v, want ErrShardFailed", w, i, err)
			}
		}
	}
	// The healthy shard trains every run it is sent, once.
	if got := sess.Stats().Shards[1].Events; got != 2*inFlight*perShard {
		t.Fatalf("healthy shard processed %d events, want its %d from both waves", got, 2*inFlight*perShard)
	}
	if err := sess.Close(); !errors.Is(err, serve.ErrShardFailed) {
		t.Fatalf("Close: err = %v, want the shard panic", err)
	}
}

// BenchmarkSessionPost prices the dispatch layer on its own: Session.PostInto
// on a warm standalone session, no HTTP and no codec, so the figure is the
// kernel plus routing, splitting, the shard hand-off and micro-batching.
// It sits beside BenchmarkEngineStep, the kernel alone.
func BenchmarkSessionPost(b *testing.B) {
	for _, batch := range []int{64, 4096} {
		evs := hammerEvents(batch, 16)
		preds := make([]bitmap.Bitmap, len(evs))
		for _, shards := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("batch=%d/shards=%d", batch, shards), func(b *testing.B) {
				sess := newDispatchSession(b, shards, serve.DefaultFlushMicros*time.Microsecond, evs, preds)
				defer sess.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sess.PostInto(evs, preds); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}
