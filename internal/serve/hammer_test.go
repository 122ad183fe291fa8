package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// hammerEvents builds a deterministic event stream with enough key variety
// to spread across shards: writers rotate, addresses stride across lines,
// and every event carries a previous-writer forward.
func hammerEvents(n, nodes int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		pid := i % nodes
		evs[i] = trace.Event{
			PID:           uint8(pid),
			PC:            uint64(20 + i%7),
			Dir:           uint8((i / nodes) % nodes),
			Addr:          uint64(i%257) * 64,
			InvReaders:    0,
			HasPrev:       true,
			PrevPID:       uint8((pid + 1) % nodes),
			PrevPC:        uint64(20 + (i+1)%7),
			FutureReaders: 1 << uint((pid+2)%nodes),
		}
	}
	return evs
}

// TestRaceHammer drives one server with interleaved session creation,
// event ingest, stats reads, and session deletion from many goroutines.
// Run under -race (make check does) it is the service's data-race probe;
// the accounting assertion at the end checks that every accepted event of
// the counting session is reflected in its stats exactly once.
func TestRaceHammer(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	// The counting session: posters tally what the server accepted;
	// stats must agree exactly afterwards.
	count := c.createSession(serve.CreateSessionRequest{
		Scheme: "union(pid+dir+add8)2[forwarded]", Shards: 4,
	})
	evs := hammerEvents(4096, 16)

	const (
		posters  = 8
		rounds   = 6
		chunkLen = 128
	)
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	post := func(worker int) {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			lo := ((worker*rounds + r) * chunkLen) % (len(evs) - chunkLen)
			body, err := jsonMarshal(evs[lo : lo+chunkLen])
			if err != nil {
				t.Error(err)
				return
			}
			var resp serve.EventsResponse
			code := c.do("POST", "/v1/sessions/"+count.ID+"/events", body, &resp)
			switch code {
			case 200:
				if len(resp.Predictions) != chunkLen {
					t.Errorf("got %d predictions, want %d", len(resp.Predictions), chunkLen)
					return
				}
				accepted.Add(uint64(resp.Events))
			case 429:
				// Backpressure is a legal outcome under load; the event
				// must NOT be counted (that is what the assertion checks).
			default:
				t.Errorf("post: unexpected status %d", code)
				return
			}
		}
	}
	churn := func(worker int) {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			sess := c.createSession(serve.CreateSessionRequest{
				Scheme: "last(dir+add6)1", Shards: 1 + worker%3,
			})
			body, _ := jsonMarshal(evs[:64])
			if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 200 && code != 429 {
				t.Errorf("churn post: status %d", code)
				return
			}
			if code := c.do("GET", "/v1/sessions/"+sess.ID+"/stats", nil, nil); code != 200 {
				t.Errorf("churn stats: status %d", code)
				return
			}
			if code := c.do("DELETE", "/v1/sessions/"+sess.ID, nil, nil); code != 200 {
				t.Errorf("churn delete: status %d", code)
				return
			}
		}
	}
	observe := func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			c.do("GET", "/v1/sessions/"+count.ID+"/stats", nil, nil)
			c.do("GET", "/v1/sessions", nil, nil)
			c.do("GET", "/healthz", nil, nil)
			c.do("GET", "/metrics", nil, nil)
		}
	}

	wg.Add(posters + 3 + 2)
	for i := 0; i < posters; i++ {
		go post(i)
	}
	for i := 0; i < 3; i++ {
		go churn(i)
	}
	go observe()
	go observe()
	wg.Wait()

	st := c.stats(count.ID)
	if st.Events != accepted.Load() {
		t.Fatalf("accepted %d events, stats report %d (lost or double-counted)",
			accepted.Load(), st.Events)
	}
	if got := st.TP + st.FP + st.TN + st.FN; got != accepted.Load()*16 {
		t.Fatalf("confusion cells %d, want events*nodes = %d", got, accepted.Load()*16)
	}
}

// TestDrainUnderLoad closes a session while posters are mid-flight: every
// Post must either complete fully (events reflected in stats) or be
// refused with ErrDraining — never half-ingested — and Close must return
// only after all accepted work is published.
func TestDrainUnderLoad(t *testing.T) {
	sc, err := core.ParseScheme("union(pid+dir+add8)2[forwarded]")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		sess, err := serve.NewSession("drain", serve.SessionConfig{
			Scheme:  sc,
			Machine: core.Machine{Nodes: 16, LineBytes: 64},
			Shards:  4,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		evs := hammerEvents(2048, 16)

		var accepted atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				preds := make([]bitmap.Bitmap, 128)
				for r := 0; ; r++ {
					lo := ((w*13 + r*97) % 15) * 128
					batch := evs[lo : lo+128]
					err := sess.PostInto(batch, preds)
					switch {
					case err == nil:
						accepted.Add(uint64(len(batch)))
					case errors.Is(err, serve.ErrDraining):
						return
					case errors.Is(err, serve.ErrBacklog):
						// retry
					default:
						t.Errorf("post: %v", err)
						return
					}
				}
			}(w)
		}
		closed := make(chan struct{})
		go func() {
			<-start
			// Let some traffic through, then drain mid-stream. The round
			// loop varies timing naturally; no sleep calibration needed.
			for i := 0; i < (round+1)*50; i++ {
				sess.Stats()
			}
			sess.Close()
			close(closed)
		}()
		close(start)
		wg.Wait()
		<-closed
		sess.Close() // idempotent

		st := sess.Stats()
		if st.Events != accepted.Load() {
			t.Fatalf("round %d: accepted %d events, drained stats report %d",
				round, accepted.Load(), st.Events)
		}
		if err := sess.PostInto(evs[:1], make([]bitmap.Bitmap, 1)); !errors.Is(err, serve.ErrDraining) {
			t.Fatalf("post after close: err = %v, want ErrDraining", err)
		}
	}
}

// jsonMarshal is a tiny indirection so hammer workers can report marshal
// failures through t.Error rather than t.Fatal (which must not be called
// off the test goroutine).
func jsonMarshal(v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	return b, nil
}
