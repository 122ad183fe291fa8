package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	resclient "cohpredict/internal/client"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// chaosConfig builds the hammer's injector config: every fault class
// enabled at rates high enough that a run of a few hundred batches sees
// all of them. The run itself kills the process once, mid-stream.
func chaosConfig(seed int64) fault.Config {
	return fault.Config{
		Seed:     seed,
		Drop:     0.15,
		Delay:    0.20,
		MaxDelay: 200 * time.Microsecond,
		Reset:    0.10,
		Error:    0.10,
	}
}

// faultTally is what a chaos run injected: the fault_* counters of the
// registry its injectors were built with, plus the kills the run made.
type faultTally struct {
	Drops, Delays, Resets, Errors, Kills int64
}

// faultCounts reads the injected faults from reg.
func faultCounts(reg *obs.Registry) faultTally {
	c := reg.Snapshot().Counters
	return faultTally{
		Drops:  c["fault_drops_total"],
		Delays: c["fault_delays_total"],
		Resets: c["fault_resets_total"],
		Errors: c["fault_errors_total"],
	}
}

// chaosOutcome is everything one chaos run produced that a replay of the
// same seed must reproduce, plus the flight recorder's slow-log entries
// (both server lives merged) for the explainability assertions.
type chaosOutcome struct {
	preds  []uint64
	stats  serve.StatsResponse
	faults faultTally
	slow   []flight.Entry
	client resclient.Stats
}

// chaosFlight builds the recorder a chaos server runs under: sampling
// effectively off and the slow threshold unreachable, so the slow-log
// holds exactly the requests an injected fault or error touched — a 1:1
// ledger against the injector's own tallies.
func chaosFlight() *flight.Recorder {
	return flight.New(flight.Options{Sample: 1 << 30, SlowThreshold: time.Hour, Slow: 8192})
}

// fetchSlow drains a live server's slow-log.
func fetchSlow(t *testing.T, base string) []flight.Entry {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/slow")
	if err != nil {
		t.Fatalf("fetching slow-log: %v", err)
	}
	defer resp.Body.Close()
	var cap flight.Capture
	if err := json.NewDecoder(resp.Body).Decode(&cap); err != nil {
		t.Fatalf("decoding slow-log: %v", err)
	}
	return cap.Requests
}

// runChaos replays tr through a chaos-injected server with a resilient
// client: batches are dropped, delayed, failed with 500s, and acked with
// connection resets; before the middle batch the server is
// checkpointed, discarded without drain, and a fresh server restores the
// snapshot (requesting restoreShards shards) to finish the stream. With binary
// set the client posts COHWIRE1 frames, so the same faults hammer the
// pooled wire path instead of the JSON one.
func runChaos(t *testing.T, tr *trace.Trace, schemeStr string, shards, restoreShards int, seed int64, binary bool) chaosOutcome {
	t.Helper()
	const chunk = 173
	batches := (len(tr.Events) + chunk - 1) / chunk
	if batches < 4 {
		t.Fatalf("trace too small for a mid-stream kill: %d batches", batches)
	}
	killAt := batches/2 - 1 // the batch index the kill precedes
	reg := obs.New()
	inj := fault.New(chaosConfig(seed), reg)

	srv := serve.NewServer(serve.Options{Fault: inj, Flight: chaosFlight()})
	ts := httptest.NewServer(srv.Handler())
	cl := resclient.New(resclient.Options{
		BaseURL:    ts.URL,
		Seed:       seed,
		MaxRetries: 64,
		Sleep:      func(time.Duration) {}, // count, don't wait
		Binary:     binary,
	})

	sess, err := cl.CreateSession(serve.CreateSessionRequest{
		Scheme: schemeStr, Nodes: 16, LineBytes: 64, Shards: shards,
	})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	id := sess.ID

	preds := make([]uint64, 0, len(tr.Events))
	var slow []flight.Entry
	var kills int64
	for lo := 0; lo < len(tr.Events); lo += chunk {
		hi := lo + chunk
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if lo/chunk == killAt {
			// Checkpoint, kill the process (no drain — the old server and
			// its sessions are simply abandoned), restore elsewhere.
			snap, err := cl.Snapshot(id)
			if err != nil {
				t.Fatalf("snapshot before kill: %v", err)
			}
			slow = append(slow, fetchSlow(t, ts.URL)...)
			ts.Close()
			_ = srv.Shutdown() // test hygiene only: close the abandoned sessions

			srv = serve.NewServer(serve.Options{Fault: inj, Flight: chaosFlight()})
			ts = httptest.NewServer(srv.Handler())
			cl = resclient.New(resclient.Options{
				BaseURL:    ts.URL,
				Seed:       seed + 1, // fresh key space for the second life
				MaxRetries: 64,
				Sleep:      func(time.Duration) {},
				Binary:     binary,
			})
			if _, err := cl.Restore(id, snap, restoreShards); err != nil {
				t.Fatalf("restore after kill: %v", err)
			}
			kills++
		}
		got, err := cl.PostEvents(id, tr.Events[lo:hi])
		if err != nil {
			t.Fatalf("post batch at %d: %v", lo, err)
		}
		preds = append(preds, got...)
	}
	if kills == 0 {
		t.Fatal("the run never killed the server; the hammer did not exercise restore")
	}

	st, err := cl.SessionStats(id)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	slow = append(slow, fetchSlow(t, ts.URL)...)
	ts.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	faults := faultCounts(reg)
	faults.Kills = kills
	return chaosOutcome{preds: preds, stats: *st, faults: faults, slow: slow, client: cl.Stats()}
}

// TestChaosEquivalence is the headline proof: under injected drops,
// delays, 500s, connection resets (with client retries and idempotency
// keys), and one mid-stream kill+checkpoint+restore, the served
// predictions and final confusion counts are byte-identical to the
// fault-free eval.Evaluate golden path, over both the JSON and COHWIRE1
// transports. Each cell creates its session at 1, 2 or 8 shards and
// restores it at another count: the server range-checks and ignores
// both, since a session runs one table.
func TestChaosEquivalence(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	m := core.Machine{Nodes: 16, LineBytes: 64}

	schemes := []string{
		"union(dir+add8)2[forwarded]", // previous-writer training
		"last(dir+add8)1",             // depth-1 direct baseline
		"sticky(add8)1",               // spatial neighbours
	}
	if testing.Short() {
		// The race-hammer CI step runs -short: one scheme still exercises
		// every fault class, the kill/restore and both transports — the
		// cross-scheme repeats add coverage of the predictor zoo, not of
		// the concurrency the hammer is here to shake.
		schemes = schemes[:1]
	}
	// Each restore asks for another shard count than its create did.
	reshard := map[int]int{1: 2, 2: 8, 8: 1}

	for _, schemeStr := range schemes {
		sc, err := core.ParseScheme(schemeStr)
		if err != nil {
			t.Fatal(err)
		}
		eng := eval.NewEngine(sc, m)
		wantPreds := make([]uint64, len(tr.Events))
		for i, ev := range tr.Events {
			wantPreds[i] = uint64(eng.Step(ev))
		}
		wantConf := eng.Confusion()

		for _, shards := range []int{1, 2, 8} {
			for _, transport := range []string{"json", "cohwire"} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", schemeStr, shards, transport), func(t *testing.T) {
					out := runChaos(t, tr, schemeStr, shards, reshard[shards], 42, transport == "cohwire")

					// The chaos must actually have happened.
					f := out.faults
					if f.Drops == 0 || f.Errors == 0 || f.Resets == 0 || f.Kills != 1 {
						t.Fatalf("fault mix too tame to prove anything: %+v", f)
					}

					if len(out.preds) != len(wantPreds) {
						t.Fatalf("served %d predictions, want %d", len(out.preds), len(wantPreds))
					}
					for i := range wantPreds {
						if out.preds[i] != wantPreds[i] {
							t.Fatalf("event %d: chaos-served prediction %#x != fault-free %#x",
								i, out.preds[i], wantPreds[i])
						}
					}
					st := out.stats
					if st.TP != wantConf.TP || st.FP != wantConf.FP ||
						st.TN != wantConf.TN || st.FN != wantConf.FN {
						t.Fatalf("confusion mismatch: chaos {%d %d %d %d}, fault-free {%d %d %d %d}",
							st.TP, st.FP, st.TN, st.FN,
							wantConf.TP, wantConf.FP, wantConf.TN, wantConf.FN)
					}
					if st.Events != uint64(len(tr.Events)) {
						t.Fatalf("events %d, want %d (a batch double-trained or vanished)",
							st.Events, len(tr.Events))
					}
				})
			}
		}
	}
}

// TestChaosFaultsExplainable: every injected fault is visible in the
// flight recorder's slow-log with a matching request ID — chaos runs are
// explainable, not just survivable. The injector's own tallies are the
// ground truth: each drop, 500, and reset it reports must appear as
// exactly one slow-log entry tagged with that fault class, every entry
// must carry a client-minted request id from one of the run's two id
// spaces, and the ids the client reports as retried must all resolve to
// slow-log entries.
func TestChaosFaultsExplainable(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	const seed = 77
	out := runChaos(t, tr, "union(dir+add8)2[forwarded]", 2, 8, seed, true)
	f := out.faults
	if f.Drops == 0 || f.Errors == 0 || f.Resets == 0 || f.Delays == 0 {
		t.Fatalf("fault mix too tame to prove anything: %+v", f)
	}

	byFault := map[string]int{}
	ids := map[string]bool{}
	// The two server lives saw ids minted under seed (before the kill)
	// and seed+1 (after).
	prefixes := []string{
		fmt.Sprintf("%016x-r", uint64(seed)),
		fmt.Sprintf("%016x-r", uint64(seed+1)),
	}
	for _, e := range out.slow {
		if len(e.Faults) == 0 && e.Status < 400 {
			t.Fatalf("healthy request leaked into the slow-log: %+v", e)
		}
		if e.ID == "" {
			t.Fatalf("slow-log entry without a request id: %+v", e)
		}
		if !strings.HasPrefix(e.ID, prefixes[0]) && !strings.HasPrefix(e.ID, prefixes[1]) {
			t.Fatalf("slow-log id %q matches neither run prefix %q/%q", e.ID, prefixes[0], prefixes[1])
		}
		ids[e.ID] = true
		for _, name := range e.Faults {
			byFault[name]++
		}
	}

	// One slow-log entry per injected decision fault: the injector draws
	// at most once per fault class per request, so tallies and tagged
	// entries must agree exactly.
	if int64(byFault["drop"]) != f.Drops {
		t.Fatalf("slow-log shows %d drops, injector reports %d", byFault["drop"], f.Drops)
	}
	if int64(byFault["error"]) != f.Errors {
		t.Fatalf("slow-log shows %d injected 500s, injector reports %d", byFault["error"], f.Errors)
	}
	if int64(byFault["reset"]) != f.Resets {
		t.Fatalf("slow-log shows %d resets, injector reports %d", byFault["reset"], f.Resets)
	}
	// Each admitted post draws the delay point once, so delay-tagged
	// entries and injected delays agree exactly too.
	if int64(byFault["delay"]) != f.Delays {
		t.Fatalf("slow-log shows %d delayed requests, injector reports %d delays", byFault["delay"], f.Delays)
	}

	// Client-side correlation: every id the (post-kill) client reports as
	// retried names a slow-log entry — the retry's cause is explainable.
	if len(out.client.RetriedIDs) == 0 {
		t.Fatal("chaos client retried nothing; the run proved nothing")
	}
	for _, id := range out.client.RetriedIDs {
		if !ids[id] {
			t.Fatalf("client retried %s but the slow-log has no such request", id)
		}
	}
}

// TestChaosReproducible: the same chaos seed injects the same faults and
// yields the same outcome: every fault (drops, delays, 500s, resets,
// kills) and every served byte must replay exactly. Each admitted post
// draws the delay point once, so delays replay as exactly as the rest.
func TestChaosReproducible(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	a := runChaos(t, tr, "union(dir+add8)2[forwarded]", 2, 8, 1234, true)
	b := runChaos(t, tr, "union(dir+add8)2[forwarded]", 2, 8, 1234, true)

	if a.faults != b.faults {
		t.Fatalf("fault decisions differ across identically-seeded runs:\n  %+v\n  %+v", a.faults, b.faults)
	}
	for i := range a.preds {
		if a.preds[i] != b.preds[i] {
			t.Fatalf("prediction %d differs across identically-seeded runs", i)
		}
	}
	if a.stats.TP != b.stats.TP || a.stats.FN != b.stats.FN || a.stats.Events != b.stats.Events {
		t.Fatalf("stats differ across identically-seeded runs")
	}

	c := runChaos(t, tr, "union(dir+add8)2[forwarded]", 2, 8, 5678, true)
	if a.faults.Drops == c.faults.Drops && a.faults.Errors == c.faults.Errors &&
		a.faults.Resets == c.faults.Resets {
		t.Fatalf("different seeds injected identical fault mixes (%+v) — seed is not wired through", a.faults)
	}
}
