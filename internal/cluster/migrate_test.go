package cluster_test

import (
	"errors"
	"sync"
	"testing"

	resclient "cohpredict/internal/client"
	"cohpredict/internal/cluster"
	"cohpredict/internal/serve"
)

// TestMigrationUnderConcurrentLoad is the drain/flip race test: four
// goroutines hammer one session with event posts while the main
// goroutine migrates it around the ring, repeatedly. Requests that land
// in a drain→flip window park and replay; none may be dropped and none
// may train twice, so the final event count must equal exactly what was
// posted.
func TestMigrationUnderConcurrentLoad(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 3})
	cl := newTestClient(tc, 10, true)

	tr := genTrace(t, "em3d", 3)
	evs := tr.Events

	sess, err := cl.CreateSession(serve.CreateSessionRequest{
		Scheme: "union(dir+add8)2[forwarded]", Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID

	const posters = 4
	const chunk = 37
	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, posters)
	per := (len(evs) + posters - 1) / posters
	for g := 0; g < posters; g++ {
		lo, hi := g*per, (g+1)*per
		if hi > len(evs) {
			hi = len(evs)
		}
		// One client per goroutine: distinct seeds keep the idempotency
		// key spaces disjoint, so replays never collide across posters.
		pcl := newTestClient(tc, 100+int64(g), true)
		wg.Add(1)
		go func(slice []serve.EventRequest) {
			defer wg.Done()
			for lo := 0; lo < len(slice); lo += chunk {
				hi := lo + chunk
				if hi > len(slice) {
					hi = len(slice)
				}
				if _, err := pcl.PostEvents(id, slice[lo:hi]); err != nil {
					errc <- err
					return
				}
			}
		}(evs[lo:hi])
	}
	go func() { wg.Wait(); close(done) }()

	// Chase the posters with migrations until they finish: each move
	// drains the in-flight forwards and parks the rest, so the posts
	// keep crossing flip windows. Targets always differ from the
	// current home (a same-node no-op would not count).
	home := tc.homeOf(t, id)
	moves := 0
	for {
		select {
		case <-done:
		default:
		}
		var target string
		for i, b := range tc.backends {
			if b.url == home {
				target = tc.backends[(i+1)%len(tc.backends)].url
			}
		}
		if code, body := tc.migrate(t, id, target); code != 200 {
			t.Fatalf("migration %d: %d: %s", moves, code, body)
		}
		home = target
		moves++
		select {
		case <-done:
			goto drained
		case err := <-errc:
			t.Fatalf("poster failed: %v", err)
		default:
		}
	}
drained:
	select {
	case err := <-errc:
		t.Fatalf("poster failed: %v", err)
	default:
	}

	st, err := cl.SessionStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != uint64(len(evs)) {
		t.Fatalf("events %d, want %d: a batch was dropped or double-trained across a flip",
			st.Events, len(evs))
	}
	cs := tc.status(t)
	if cs.Migrations != int64(moves) {
		t.Fatalf("status reports %d migrations, the test ran %d", cs.Migrations, moves)
	}
	if cs.MigrationAborts != 0 || cs.Lost != 0 {
		t.Fatalf("healthy-cluster migration churn aborted or lost sessions: %+v", cs)
	}
}

// TestMigrationAbortRollsBack pins the abort path: a migration whose
// restore leg fails (the target dies between the health check and the
// PUT) must roll the routing table back and leave the session fully
// usable on its old home.
func TestMigrationAbortRollsBack(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2})
	cl := newTestClient(tc, 11, false)

	evs := genTrace(t, "em3d", 3).Events
	sess, err := cl.CreateSession(serve.CreateSessionRequest{
		Scheme: "last(dir)1", Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, evs[:100]); err != nil {
		t.Fatal(err)
	}

	home := tc.homeOf(t, sess.ID)
	var target string
	for _, b := range tc.backends {
		if b.url != home {
			target = b.url
		}
	}
	// Kill the target without telling the router: Migrate's health gate
	// still sees it up, so the failure surfaces mid-migration.
	tc.backendByURL(t, target).kill()
	if code, body := tc.migrate(t, sess.ID, target); code != 502 {
		t.Fatalf("migrate to a dead target: %d: %s", code, body)
	}

	cs := tc.status(t)
	if cs.MigrationAborts != 1 || cs.Migrations != 0 {
		t.Fatalf("want 1 abort and 0 migrations, got %+v", cs)
	}
	if got := tc.homeOf(t, sess.ID); got != home {
		t.Fatalf("session moved to %s despite the abort (home was %s)", got, home)
	}
	if _, err := cl.PostEvents(sess.ID, evs[100:200]); err != nil {
		t.Fatalf("post after aborted migration: %v", err)
	}
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 200 {
		t.Fatalf("events %d after rollback, want 200", st.Events)
	}
}

// TestFailoverUnshippedSessionLost: a backend dies before any snapshot
// ship. The session is unrecoverable and the router must say so — 410
// with the session_lost machine code, which the client refuses to
// retry — rather than silently serving an empty re-creation.
func TestFailoverUnshippedSessionLost(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 1, standby: true})
	cl := newTestClient(tc, 12, false)

	evs := genTrace(t, "em3d", 3).Events
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, evs[:50]); err != nil {
		t.Fatal(err)
	}

	tc.backends[0].kill()
	_, err = cl.PostEvents(sess.ID, evs[50:100])
	var ae *resclient.APIError
	if !errors.As(err, &ae) || ae.Status != 410 || ae.Code != cluster.CodeSessionLost {
		t.Fatalf("post after unshipped kill: want 410/%s, got %v", cluster.CodeSessionLost, err)
	}
	if resclient.Retryable(err) {
		t.Fatal("session_lost must not be retryable: the state is gone")
	}

	cs := tc.status(t)
	if cs.Lost != 1 || cs.Failovers != 0 {
		t.Fatalf("want 1 lost session and 0 failovers, got %+v", cs)
	}
	for _, s := range cs.Sessions {
		if s.ID == sess.ID && !s.Lost {
			t.Fatalf("status does not mark %s lost: %+v", sess.ID, s)
		}
	}
}

// TestFailoverWithDeadStandby: the snapshot shipped, but by the time
// the home dies the standby is dead too. Shipped or not, there is
// nowhere to fail over to — the session is lost, not half-served.
func TestFailoverWithDeadStandby(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 1, standby: true})
	cl := newTestClient(tc, 13, false)

	evs := genTrace(t, "em3d", 3).Events
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, evs[:50]); err != nil {
		t.Fatal(err)
	}
	if n := tc.router.ShipNow(); n != 1 {
		t.Fatalf("shipped %d sessions, want 1", n)
	}

	tc.standby.kill()
	tc.backends[0].kill()
	_, err = cl.PostEvents(sess.ID, evs[50:100])
	var ae *resclient.APIError
	if !errors.As(err, &ae) || ae.Status != 410 || ae.Code != cluster.CodeSessionLost {
		t.Fatalf("post after home+standby kill: want 410/%s, got %v", cluster.CodeSessionLost, err)
	}
	cs := tc.status(t)
	if cs.Lost != 1 || cs.Failovers != 0 || cs.Ships != 1 {
		t.Fatalf("want lost=1 failovers=0 ships=1, got %+v", cs)
	}
}

// TestFailoverAfterMidMigrationKill: the home dies while its session is
// mid-migration. The failover sweep that runs when the node is marked
// down skips the migrating entry — and markDown fires only once — so
// the abort path must re-run the sweep after the rollback, or the
// session is stranded: neither failed over to its shipped standby copy
// nor declared lost, answering 502 forever.
func TestFailoverAfterMidMigrationKill(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2, standby: true})
	cl := newTestClient(tc, 15, false)

	evs := genTrace(t, "em3d", 3).Events
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, evs[:50]); err != nil {
		t.Fatal(err)
	}
	if n := tc.router.ShipNow(); n != 1 {
		t.Fatalf("shipped %d sessions, want 1", n)
	}

	home := tc.homeOf(t, sess.ID)
	var target string
	for _, b := range tc.backends {
		if b.url != home {
			target = b.url
		}
	}
	// Kill the HOME without telling the router: the migration passes its
	// target health gate, marks the entry migrating, and then its
	// snapshot GET hits the dead node — the exact window the failover
	// sweep cannot see the session in.
	tc.backendByURL(t, home).kill()
	if code, body := tc.migrate(t, sess.ID, target); code != 502 {
		t.Fatalf("migrate off a dead home: %d: %s", code, body)
	}

	cs := tc.status(t)
	if cs.MigrationAborts != 1 || cs.Failovers != 1 || cs.Lost != 0 {
		t.Fatalf("want 1 abort, 1 failover, 0 lost; got %+v", cs)
	}
	if got := tc.homeOf(t, sess.ID); got != tc.standby.url {
		t.Fatalf("session homed on %s after the abort, want the standby %s", got, tc.standby.url)
	}
	// The proof the session is alive, not stranded: it keeps serving
	// from the shipped copy.
	if _, err := cl.PostEvents(sess.ID, evs[50:100]); err != nil {
		t.Fatalf("post after mid-migration failover: %v", err)
	}
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 100 {
		t.Fatalf("events %d after failover, want 100 (50 shipped + 50 posted)", st.Events)
	}
}
