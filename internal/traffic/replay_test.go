package traffic

import (
	"net/http/httptest"
	"testing"
	"time"

	"cohpredict/internal/client"
	"cohpredict/internal/fault"
	"cohpredict/internal/machine"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// genTestTrace simulates a workload on the paper's 16-node machine.
func genTestTrace(t *testing.T, bench string, seed int64) *trace.Trace {
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

// confusion is the shard-independent slice of a session's stats — the
// part replay must reproduce exactly.
type confusion struct {
	Events, TP, FP, TN, FN, TableEntries uint64
}

func confusionOf(st *serve.StatsResponse) confusion {
	return confusion{Events: st.Events, TP: st.TP, FP: st.FP, TN: st.TN, FN: st.FN, TableEntries: st.TableEntries}
}

// chaosRun drives two interleaved sessions at a fault-injected recording
// server with a resilient client (retries under idempotency keys), and
// returns the captured trace plus the predictions and confusion the
// original run actually served.
func chaosRun(t *testing.T, evs []trace.Event, seed int64) (data []byte, preds [][]uint64, confs []confusion) {
	t.Helper()
	clk := &fakeClock{}
	rec := NewRecorderClock(clk.now)
	inj := fault.New(fault.Config{Seed: seed, Drop: 0.08, Reset: 0.05, Error: 0.05}, nil)
	srv := serve.NewServer(serve.Options{Fault: inj, Record: rec})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()

	cl := client.New(client.Options{
		BaseURL:    ts.URL,
		Seed:       seed,
		MaxRetries: 64,
		Sleep:      func(time.Duration) {}, // count, don't wait
		Binary:     true,
	})
	ids := make([]string, 2)
	for i, scheme := range []string{"union(dir+add8)2", "last()1"} {
		resp, err := cl.CreateSession(serve.CreateSessionRequest{
			Scheme: scheme, Nodes: 16, Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.ID
	}

	// Interleave batches across the two sessions from one goroutine:
	// posts are serialized, so the recorded total order is the training
	// order and replay equivalence is exact.
	const chunk = 96
	preds = make([][]uint64, 2)
	for lo := 0; lo < len(evs); lo += chunk {
		hi := lo + chunk
		if hi > len(evs) {
			hi = len(evs)
		}
		for s := 0; s < 2; s++ {
			p, err := cl.PostEvents(ids[s], evs[lo:hi])
			if err != nil {
				t.Fatalf("posting batch at %d to session %d: %v", lo, s, err)
			}
			preds[s] = append(preds[s], p...)
		}
	}
	confs = make([]confusion, 2)
	for s := 0; s < 2; s++ {
		st, err := cl.SessionStats(ids[s])
		if err != nil {
			t.Fatal(err)
		}
		confs[s] = confusionOf(st)
	}
	return rec.Bytes(), preds, confs
}

// replayAgainstFreshServer replays recs at a fresh fault-free in-process
// server.
func replayAgainstFreshServer(t *testing.T, recs []TraceRecord) *ReplayResult {
	t.Helper()
	srv := serve.NewServer(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()
	res, err := Replay(recs, ReplayOptions{BaseURL: ts.URL, Binary: true, Seed: 1})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res
}

// TestChaosRecordReplayEquivalence is the headline proof: record a
// seeded chaos run (drops, injected 500s, connection resets, client
// retries under idempotency keys), then replay the captured COHTRACE1
// stream against a fresh fault-free server — the replay serves
// predictions and confusion byte-identical to what the original chaotic
// run produced.
func TestChaosRecordReplayEquivalence(t *testing.T) {
	tr := genTestTrace(t, "em3d", 11)
	evs := tr.Events
	if len(evs) > 2048 {
		evs = evs[:2048]
	}
	data, wantPreds, wantConfs := chaosRun(t, evs, 7)

	recs, err := DecodeTraceFile(data)
	if err != nil {
		t.Fatalf("recorded trace does not decode: %v", err)
	}
	// The resilient client retried through the chaos, so every batch was
	// eventually accepted exactly once: 2 sessions + 2×ceil(n/96) batches.
	wantRecords := 2 + 2*((len(evs)+95)/96)
	if len(recs) != wantRecords {
		t.Fatalf("trace holds %d records, want %d (a retry double-recorded or a batch vanished)",
			len(recs), wantRecords)
	}

	res := replayAgainstFreshServer(t, recs)
	if len(res.Sessions) != 2 {
		t.Fatalf("replayed %d sessions, want 2", len(res.Sessions))
	}
	for s := 0; s < 2; s++ {
		got, want := res.Sessions[s].Predictions, wantPreds[s]
		if len(got) != len(want) {
			t.Fatalf("session %d: %d predictions, want %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("session %d: prediction %d is %#x, recorded run served %#x",
					s, i, got[i], want[i])
			}
		}
		if gc := confusionOf(res.Sessions[s].Stats); gc != wantConfs[s] {
			t.Fatalf("session %d: confusion %+v, recorded run produced %+v",
				s, gc, wantConfs[s])
		}
	}
}

// TestReplayJSONTransportMatchesWire replays the same trace over both
// transports; the negotiated encoding must not change what is served.
func TestReplayJSONTransportMatchesWire(t *testing.T) {
	tr := genTestTrace(t, "ocean", 3)
	evs := tr.Events
	if len(evs) > 512 {
		evs = evs[:512]
	}
	data, _, _ := chaosRun(t, evs, 9)
	recs, err := DecodeTraceFile(data)
	if err != nil {
		t.Fatal(err)
	}
	var results [2]*ReplayResult
	for i, binary := range []bool{true, false} {
		srv := serve.NewServer(serve.Options{})
		ts := httptest.NewServer(srv.Handler())
		res, err := Replay(recs, ReplayOptions{BaseURL: ts.URL, Binary: binary, Seed: 1})
		ts.Close()
		srv.Shutdown()
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		results[i] = res
	}
	for s := range results[0].Sessions {
		a, b := results[0].Sessions[s], results[1].Sessions[s]
		if len(a.Predictions) != len(b.Predictions) {
			t.Fatalf("session %d: transports served different prediction counts", s)
		}
		for i := range a.Predictions {
			if a.Predictions[i] != b.Predictions[i] {
				t.Fatalf("session %d prediction %d: wire %#x vs json %#x", s, i, a.Predictions[i], b.Predictions[i])
			}
		}
		if confusionOf(a.Stats) != confusionOf(b.Stats) {
			t.Fatalf("session %d: transports produced different confusion", s)
		}
	}
}

// TestRecordedServerTraceIsReplayable pins the serve-layer hook end to
// end over HTTP with recording enabled but no chaos: what the recorder
// captures decodes cleanly and replays to the same confusion.
func TestRecordedServerTraceIsReplayable(t *testing.T) {
	rec := NewRecorder() // real clock: arrivals must still satisfy the codec
	srv := serve.NewServer(serve.Options{Record: rec})
	ts := httptest.NewServer(srv.Handler())
	cl := client.New(client.Options{BaseURL: ts.URL, Seed: 5, Binary: true})
	resp, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "union(dir+add8)2", Nodes: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	evs := genTestTrace(t, "gauss", 2).Events
	if len(evs) > 768 {
		evs = evs[:768]
	}
	for lo := 0; lo < len(evs); lo += 128 {
		hi := lo + 128
		if hi > len(evs) {
			hi = len(evs)
		}
		if _, err := cl.PostEvents(resp.ID, evs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.SessionStats(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Shutdown()

	recs, err := DecodeTraceFile(rec.Bytes())
	if err != nil {
		t.Fatalf("server-recorded trace does not decode: %v", err)
	}
	srv2 := serve.NewServer(serve.Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { ts2.Close(); srv2.Shutdown() }()
	res, err := Replay(recs, ReplayOptions{BaseURL: ts2.URL, Binary: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := confusionOf(res.Sessions[0].Stats), confusionOf(st); got != want {
		t.Fatalf("replayed confusion %+v, original %+v", got, want)
	}
}
