package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/machine"
	"cohpredict/internal/metrics"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// genTrace simulates a workload on the paper's 16-node machine and returns
// its coherence-event trace (deterministic per seed).
func genTrace(t *testing.T, bench string, seed int64) *trace.Trace {
	t.Helper()
	mach := machine.New(machine.DefaultConfig())
	b, err := workload.ByName(bench, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(mach, 16, seed)
	tr := mach.Finish()
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	return tr
}

// client is a thin typed wrapper over the service's HTTP API for tests.
type client struct {
	t    testing.TB
	base string
	http *http.Client
}

func newClient(t testing.TB, srv *serve.Server) (*client, func()) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return &client{t: t, base: ts.URL, http: ts.Client()}, ts.Close
}

// do issues a request and decodes the JSON response into out (if non-nil),
// returning the status code.
func (c *client) do(method, path string, body []byte, out interface{}) int {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("decoding %s %s response %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

func (c *client) createSession(req serve.CreateSessionRequest) serve.CreateSessionResponse {
	c.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	var resp serve.CreateSessionResponse
	if code := c.do("POST", "/v1/sessions", body, &resp); code != http.StatusCreated {
		c.t.Fatalf("create session: status %d", code)
	}
	return resp
}

// postEvents replays events through the batched endpoint in chunks and
// returns the predictions in order.
func (c *client) postEvents(id string, evs []trace.Event, chunk int) []uint64 {
	c.t.Helper()
	preds := make([]uint64, 0, len(evs))
	for lo := 0; lo < len(evs); lo += chunk {
		hi := lo + chunk
		if hi > len(evs) {
			hi = len(evs)
		}
		body, err := json.Marshal(evs[lo:hi])
		if err != nil {
			c.t.Fatal(err)
		}
		var resp serve.EventsResponse
		if code := c.do("POST", "/v1/sessions/"+id+"/events", body, &resp); code != http.StatusOK {
			c.t.Fatalf("post events: status %d", code)
		}
		if resp.Events != hi-lo {
			c.t.Fatalf("posted %d events, response says %d", hi-lo, resp.Events)
		}
		preds = append(preds, resp.Predictions...)
	}
	return preds
}

func (c *client) stats(id string) serve.StatsResponse {
	c.t.Helper()
	var resp serve.StatsResponse
	if code := c.do("GET", "/v1/sessions/"+id+"/stats", nil, &resp); code != http.StatusOK {
		c.t.Fatalf("stats: status %d", code)
	}
	return resp
}

// TestOfflineEquivalence is the serving layer's determinism contract: a
// trace replayed through the HTTP API returns, per event, exactly the
// bitmap eval.Engine.Step produces, and final confusion counts identical
// to eval.Evaluate — at shard counts 1, 2, and 8, across prediction
// functions and update mechanisms. It mirrors the sweep engine's
// worker-count invariance tests.
func TestOfflineEquivalence(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	m := core.Machine{Nodes: 16, LineBytes: 64}

	schemes := []string{
		"last(dir+add8)1",            // direct, dir+addr routed
		"union(pid+pc8)2[forwarded]", // previous-writer training, degenerate routing
		"union(dir+add10)4",
		"inter(pid+dir+add8)2[forwarded]", // previous-writer training, dir+addr routed
		"pas(add8)2[forwarded]",
		"last()1[ordered]", // zero index: every event hits one entry
		"sticky(add8)1",    // spatial neighbours: pinned to one shard
	}
	for _, schemeStr := range schemes {
		sc, err := core.ParseScheme(schemeStr)
		if err != nil {
			t.Fatal(err)
		}

		// Offline ground truth: per-event predictions, final tallies and
		// the table's size, from the kernel every engine runs.
		table, keyer := core.NewTable(sc, m), sc.Index.Keyer(m)
		var wantConf metrics.Confusion
		wantPreds := make([]uint64, len(tr.Events))
		for i := range tr.Events {
			ev := tr.Events[i]
			pred := eval.Apply(sc.Update, &keyer, table, &ev)
			wantPreds[i] = uint64(pred)
			wantConf.AddBitmaps(pred, ev.FutureReaders, m.Nodes)
		}
		if evaluated := eval.Evaluate(sc, m, tr).Confusion; evaluated != wantConf {
			t.Fatalf("%s: kernel replay and eval.Evaluate disagree", schemeStr)
		}

		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", schemeStr, shards), func(t *testing.T) {
				srv := serve.NewServer(serve.Options{})
				defer srv.Shutdown()
				c, closeTS := newClient(t, srv)
				defer closeTS()

				sess := c.createSession(serve.CreateSessionRequest{
					Scheme:    schemeStr,
					Nodes:     16,
					LineBytes: 64,
					Shards:    shards,
				})
				// Chunk size deliberately prime so batches straddle
				// micro-batch boundaries.
				got := c.postEvents(sess.ID, tr.Events, 173)
				for i := range wantPreds {
					if got[i] != wantPreds[i] {
						t.Fatalf("event %d: served prediction %#x != offline %#x",
							i, got[i], wantPreds[i])
					}
				}
				st := c.stats(sess.ID)
				if st.TP != wantConf.TP || st.FP != wantConf.FP ||
					st.TN != wantConf.TN || st.FN != wantConf.FN {
					t.Fatalf("confusion mismatch: served {%d %d %d %d}, offline {%d %d %d %d}",
						st.TP, st.FP, st.TN, st.FN,
						wantConf.TP, wantConf.FP, wantConf.TN, wantConf.FN)
				}
				if st.Events != uint64(len(tr.Events)) {
					t.Fatalf("events %d, want %d", st.Events, len(tr.Events))
				}
				if st.TableEntries != uint64(table.Entries()) {
					t.Fatalf("table entries %d, want %d (shards must partition, not replicate)",
						st.TableEntries, table.Entries())
				}
			})
		}
	}
}

// TestEquivalenceSecondWorkload runs the contract over a second sharing
// structure (nearest-neighbour instead of producer-consumer) at the widest
// shard count, with the default tuning.
func TestEquivalenceSecondWorkload(t *testing.T) {
	tr := genTrace(t, "ocean", 7)
	m := core.Machine{Nodes: 16, LineBytes: 64}
	sc, err := core.ParseScheme("union(dir+add8)2")
	if err != nil {
		t.Fatal(err)
	}

	eng := eval.NewEngine(sc, m)
	wantPreds := make([]uint64, len(tr.Events))
	for i, ev := range tr.Events {
		wantPreds[i] = uint64(eng.Step(ev))
	}

	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	sess := c.createSession(serve.CreateSessionRequest{Scheme: "union(dir+add8)2", Shards: 8})
	got := c.postEvents(sess.ID, tr.Events, 512)
	for i := range wantPreds {
		if got[i] != wantPreds[i] {
			t.Fatalf("event %d: served %#x != offline %#x", i, got[i], wantPreds[i])
		}
	}
	st := c.stats(sess.ID)
	if st.TP != eng.Confusion().TP || st.FN != eng.Confusion().FN {
		t.Fatalf("confusion mismatch: %+v vs %+v", st, eng.Confusion())
	}
}

// TestOfflineEquivalenceDispatchEdges holds the dispatch layer's corner
// inputs to the same contract: per-event predictions equal to
// eval.Engine.Step and confusion counts equal to eval.Evaluate. A post is
// split into one run per shard it touches, so the corners are a post
// that touches one shard of eight (the seven empty runs must not be
// sent), posts of a single event, and one post of MaxBatchEvents events.
func TestOfflineEquivalenceDispatchEdges(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	m := core.Machine{Nodes: 16, LineBytes: 64}
	const schemeStr = "union(dir+add8)2[forwarded]"
	sc, err := core.ParseScheme(schemeStr)
	if err != nil {
		t.Fatal(err)
	}

	const target = 3
	router := serve.NewRouter(sc, m, 8)
	var oneShard []trace.Event
	for i := range tr.Events {
		if router.RouteEvent(&tr.Events[i]) == target {
			oneShard = append(oneShard, tr.Events[i])
		}
	}
	maxBatch := make([]trace.Event, serve.MaxBatchEvents)
	for i := range maxBatch {
		maxBatch[i] = tr.Events[i%len(tr.Events)]
	}

	cases := []struct {
		name   string
		events []trace.Event
		shards int
		chunk  int
		only   int // the one shard every event routes to, or -1
	}{
		{"one-shard-of-8", oneShard, 8, 17, target},
		{"single-event/shards=1", tr.Events[:200], 1, 1, -1},
		{"single-event/shards=8", tr.Events[:200], 8, 1, -1},
		{"max-batch/shards=8", maxBatch, 8, serve.MaxBatchEvents, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := eval.NewEngine(sc, m)
			want := make([]bitmap.Bitmap, len(tc.events))
			for i, ev := range tc.events {
				want[i] = eng.Step(ev)
			}
			wantConf := eval.Evaluate(sc, m, &trace.Trace{Events: tc.events}).Confusion

			reg := obs.New()
			srv := serve.NewServer(serve.Options{Registry: reg})
			defer srv.Shutdown()
			c, closeTS := newClient(t, srv)
			defer closeTS()
			sess := c.createSession(serve.CreateSessionRequest{
				Scheme: schemeStr, Nodes: 16, LineBytes: 64, Shards: tc.shards,
				MaxPending: serve.MaxBatchEvents,
			})

			posts := 0
			got := make([]bitmap.Bitmap, 0, len(tc.events))
			for lo := 0; lo < len(tc.events); lo += tc.chunk {
				hi := min(lo+tc.chunk, len(tc.events))
				frame := serve.AppendWireBatch(nil, tc.events[lo:hi])
				code, _, body := c.doRaw("POST", "/v1/sessions/"+sess.ID+"/events", frame,
					map[string]string{"Content-Type": serve.ContentTypeWire})
				if code != http.StatusOK {
					t.Fatalf("post at %d: status %d: %s", lo, code, body)
				}
				preds, err := serve.DecodeWireReply(body)
				if err != nil {
					t.Fatalf("decoding reply at %d: %v", lo, err)
				}
				got = append(got, preds...)
				posts++
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: served %#x != offline %#x", i, got[i], want[i])
				}
			}
			st := c.stats(sess.ID)
			if st.TP != wantConf.TP || st.FP != wantConf.FP ||
				st.TN != wantConf.TN || st.FN != wantConf.FN {
				t.Fatalf("confusion mismatch: served {%d %d %d %d}, offline {%d %d %d %d}",
					st.TP, st.FP, st.TN, st.FN,
					wantConf.TP, wantConf.FP, wantConf.TN, wantConf.FN)
			}
			if st.Events != uint64(len(tc.events)) {
				t.Fatalf("events %d, want %d", st.Events, len(tc.events))
			}
			if tc.only < 0 {
				return
			}
			for k, sh := range st.Shards {
				if k != tc.only && sh.Events != 0 {
					t.Fatalf("shard %d processed %d events; every event routes to shard %d", k, sh.Events, tc.only)
				}
			}
			// Serial posts at flush-when-idle: one run, so one micro-batch,
			// per post. An empty run sent to an idle shard would add one.
			if b := reg.Snapshot().Counters["serve_batches_total"]; b != int64(posts) {
				t.Fatalf("%d micro-batches for %d single-shard posts: empty runs were dispatched", b, posts)
			}
		})
	}
}
