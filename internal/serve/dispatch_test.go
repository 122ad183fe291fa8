package serve_test

import (
	"fmt"
	"runtime"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

const dispatchScheme = "union(pid+dir+add10)2[forwarded]"

// dispatchCases are the two batch sizes the benchmark workloads post:
// bulk batches of 4096 events and small ones of 64. (The names keep the
// micro-batch flush regimes each stood for before a post ran its own
// events under the session's table lock.)
var dispatchCases = []struct {
	name  string
	batch int
}{
	{"batch=4096/flush=default", 4096},
	{"batch=64/flush=idle", 64},
}

// newDispatchSession builds a standalone session and warms it with one
// post of evs, so the predictor table holds every key evs touches.
func newDispatchSession(tb testing.TB, shards int, evs []trace.Event, preds []bitmap.Bitmap) *serve.Session {
	tb.Helper()
	sc, err := core.ParseScheme(dispatchScheme)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := serve.NewSession("dispatch", serve.SessionConfig{
		Scheme:  sc,
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Shards:  shards,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sess.PostInto(evs, preds); err != nil {
		tb.Fatal(err)
	}
	return sess
}

// TestSessionPostIntoAllocFree pins the post path's allocation-free
// claim: on a warm session, a post is admitted, takes the table lock and
// runs the kernel over its events without allocating, at whatever shard
// count it was created with.
func TestSessionPostIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("a race build allocates more")
	}
	for _, dc := range dispatchCases {
		evs := hammerEvents(dc.batch, 16)
		preds := make([]bitmap.Bitmap, len(evs))
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", dc.name, shards), func(t *testing.T) {
				sess := newDispatchSession(t, shards, evs, preds)
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

// TestSessionUpFrontAllocBounded: neither the pending limit nor the batch
// size may size a buffer up front, whether the session is created or
// restored from a snapshot carrying that tuning; both are at their
// maximum here, where sizing either would cost megabytes.
func TestSessionUpFrontAllocBounded(t *testing.T) {
	const bound = 1 << 20
	cfg := serve.SessionConfig{
		Scheme:     mustScheme(t, dispatchScheme),
		Machine:    core.Machine{Nodes: 16, LineBytes: 64},
		Shards:     8,
		BatchSize:  serve.MaxBatchEvents,
		MaxPending: 1 << 20,
	}
	src, err := serve.NewSession("src", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func() (*serve.Session, error)
	}{
		{"NewSession", func() (*serve.Session, error) { return serve.NewSession("big", cfg, nil) }},
		{"NewSessionFromSnapshot", func() (*serve.Session, error) {
			return serve.NewSessionFromSnapshot("twin", snap, nil, nil, nil, nil)
		}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sess, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes", tc.name, got)
		if got > bound {
			t.Errorf("%s allocates %d bytes up front, want at most %d", tc.name, got, bound)
		}
	}
}

// BenchmarkSessionPost prices the post path on its own: Session.PostInto
// on a warm standalone session, no HTTP and no codec, so the figure is the
// kernel plus admission and the table lock. It sits beside
// BenchmarkEngineStep, the kernel alone.
func BenchmarkSessionPost(b *testing.B) {
	for _, batch := range []int{64, 4096} {
		evs := hammerEvents(batch, 16)
		preds := make([]bitmap.Bitmap, len(evs))
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sess := newDispatchSession(b, 1, evs, preds)
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
