package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"cohpredict/internal/cluster"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// clusterChaosConfig is one backend's injector: drops, 500s, resets,
// and shard delays on the event path. The node kill is not a fault
// draw here — the cluster run kills a whole backend at a scripted
// batch index instead, which is the failure the single-node hammer
// could not express.
func clusterChaosConfig(seed int64) fault.Config {
	// Hotter than the single-node hammer's mix: a session only ever
	// hammers one backend at a time, and the final third of the stream
	// runs on the fault-free standby, so the faulted window is short.
	return fault.Config{
		Seed:     seed,
		Drop:     0.18,
		Delay:    0.08,
		MaxDelay: 200 * time.Microsecond,
		Reset:    0.12,
		Error:    0.12,
	}
}

// faultTally is what a chaos run's injectors injected, read from the
// fault_* counters of the registry they were built with.
type faultTally struct {
	Drops, Delays, Resets, Errors int64
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

// clusterChaosOutcome is what one chaos run produced.
type clusterChaosOutcome struct {
	preds  []uint64
	stats  serve.StatsResponse
	status *cluster.ClusterStatus
	faults faultTally // summed over every serving backend
}

// runClusterChaos streams tr through a router fronting `backends`
// fault-injected predserve nodes plus a fault-free warm standby. The
// script: at one third of the stream a live migration moves the
// session to the next backend on the ring while posting continues
// (requests landing in the drain→flip window park and replay); at two
// thirds a snapshot ships to the standby and the session's
// then-current home is killed without drain — the next post's
// transport failure triggers the probe, the down-mark, and the
// failover, and the client's retry lands on the standby.
func runClusterChaos(t *testing.T, evs []serve.EventRequest, schemeStr string, backends, shards int, seed int64) clusterChaosOutcome {
	t.Helper()
	// Smaller batches than the single-node hammer: more posts means
	// more fault draws in the shortened faulted window, and a longer
	// stream of requests for the migration to overlap with.
	const chunk = 61
	batches := (len(evs) + chunk - 1) / chunk
	if batches < 6 {
		t.Fatalf("trace too small for the chaos script: %d batches", batches)
	}

	// Every backend's injector counts into one registry, so its fault_*
	// counters sum over the backends.
	reg := obs.New()
	tc := startCluster(t, clusterConfig{
		backends: backends,
		standby:  true,
		injFor: func(i int) *fault.Injector {
			return fault.New(clusterChaosConfig(seed+int64(i)), reg)
		},
	})
	cl := newTestClient(tc, seed, true)

	sess, err := cl.CreateSession(serve.CreateSessionRequest{
		Scheme: schemeStr, Nodes: 16, LineBytes: 64, Shards: shards,
	})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	id := sess.ID

	migrateAt, killAt := batches/3, 2*batches/3
	var migrateDone chan struct{}
	preds := make([]uint64, 0, len(evs))
	for lo, batch := 0, 0; lo < len(evs); lo, batch = lo+chunk, batch+1 {
		if batch == migrateAt {
			// Fire the migration concurrently: the posts below keep
			// flowing while the session drains and flips, so some of
			// them must cross the migration window.
			home := tc.homeOf(t, id)
			var target string
			for i, b := range tc.backends {
				if b.url == home {
					target = tc.backends[(i+1)%len(tc.backends)].url
				}
			}
			migrateDone = make(chan struct{})
			go func() {
				defer close(migrateDone)
				if code, body := tc.migrate(t, id, target); code != 200 {
					t.Errorf("migrate: %d: %s", code, body)
				}
			}()
		}
		if batch == killAt {
			// The migration must have settled before the kill so the
			// run has exactly one migration and one failover.
			<-migrateDone
			if n := tc.router.ShipNow(); n != 1 {
				t.Fatalf("ship before kill shipped %d sessions, want 1", n)
			}
			tc.backendByURL(t, tc.homeOf(t, id)).kill()
		}
		hi := lo + chunk
		if hi > len(evs) {
			hi = len(evs)
		}
		got, err := cl.PostEvents(id, evs[lo:hi])
		if err != nil {
			t.Fatalf("post batch %d: %v", batch, err)
		}
		preds = append(preds, got...)
	}

	st, err := cl.SessionStats(id)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	return clusterChaosOutcome{preds: preds, stats: *st, status: tc.status(t), faults: faultCounts(reg)}
}

// TestClusterChaosEquivalence is the headline proof: a seeded chaos
// run — drops, 500s, connection resets on every backend, one live
// migration under load, and one backend killed mid-stream with
// failover from the warm standby — yields predictions and confusion
// tallies byte-identical to the fault-free offline engine, at 1, 2,
// and 3 backends × 1, 2, and 8 shards, reproducible from one seed.
func TestClusterChaosEquivalence(t *testing.T) {
	tr := genTrace(t, "em3d", 3)
	evs := tr.Events
	const schemeStr = "union(dir+add8)2[forwarded]"

	sc, err := core.ParseScheme(schemeStr)
	if err != nil {
		t.Fatal(err)
	}
	eng := eval.NewEngine(sc, core.Machine{Nodes: 16, LineBytes: 64})
	wantPreds := make([]uint64, len(tr.Events))
	for i, ev := range tr.Events {
		wantPreds[i] = uint64(eng.Step(ev))
	}
	wantConf := eng.Confusion()

	backendCounts := []int{1, 2, 3}
	shardCounts := []int{1, 2, 8}
	if testing.Short() {
		// The race-hammer CI step runs -short: the 3-backend × 2-shard
		// cell still crosses every seam (migration, kill, failover,
		// parked requests); the full matrix varies only the topology.
		backendCounts, shardCounts = []int{3}, []int{2}
	}

	for _, backends := range backendCounts {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("backends=%d/shards=%d", backends, shards), func(t *testing.T) {
				out := runClusterChaos(t, evs, schemeStr, backends, shards, 42)

				// The chaos must actually have happened.
				if f := out.faults; f.Drops == 0 || f.Errors == 0 || f.Resets == 0 {
					t.Fatalf("fault mix too tame to prove anything: %+v", f)
				}
				cs := out.status
				if cs.Migrations != 1 || cs.Failovers != 1 {
					t.Fatalf("want exactly 1 migration and 1 failover, got %d and %d",
						cs.Migrations, cs.Failovers)
				}
				if cs.Lost != 0 {
					t.Fatalf("%d sessions lost; the standby copy did not cover the kill", cs.Lost)
				}

				if len(out.preds) != len(wantPreds) {
					t.Fatalf("served %d predictions, want %d", len(out.preds), len(wantPreds))
				}
				for i := range wantPreds {
					if out.preds[i] != wantPreds[i] {
						t.Fatalf("event %d: cluster-served prediction %#x != fault-free %#x",
							i, out.preds[i], wantPreds[i])
					}
				}
				st := out.stats
				if st.TP != wantConf.TP || st.FP != wantConf.FP ||
					st.TN != wantConf.TN || st.FN != wantConf.FN {
					t.Fatalf("confusion mismatch: cluster {%d %d %d %d}, fault-free {%d %d %d %d}",
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
