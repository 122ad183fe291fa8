package cluster_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/serve"
)

// TestNamesAgree: a session has one name on every node that holds it.
// Through a create, a ship, a migration and a failover, every id a live
// node holds is in the router's table, every table entry is held by its
// home under its cluster id, and the standby holds only shipped copies.
func TestNamesAgree(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2, standby: true})
	cl := newTestClient(tc, 21, true)
	evs := genTrace(t, "em3d", 3).Events

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "union(dir+add8)2[forwarded]", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tc.checkNames(t)
	if _, err := cl.PostEvents(sess.ID, evs[:100]); err != nil {
		t.Fatal(err)
	}

	if n := tc.router.ShipNow(); n != 1 {
		t.Fatalf("shipped %d sessions, want 1", n)
	}
	tc.checkNames(t)

	home := tc.homeOf(t, sess.ID)
	target := tc.backends[0].url
	if target == home {
		target = tc.backends[1].url
	}
	if code, body := tc.migrate(t, sess.ID, target); code != http.StatusOK {
		t.Fatalf("migrate: %d: %s", code, body)
	}
	tc.checkNames(t)
	if _, err := cl.PostEvents(sess.ID, evs[100:200]); err != nil {
		t.Fatal(err)
	}

	tc.backendByURL(t, target).kill()
	tc.router.CheckNow()
	if got := tc.homeOf(t, sess.ID); got != tc.standby.url {
		t.Fatalf("session homed on %s after the kill, want the standby", got)
	}
	tc.checkNames(t)
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != sess.ID || st.Events != 100 {
		t.Fatalf("stats after failover: id %s, %d events; want %s at the shipped 100", st.ID, st.Events, sess.ID)
	}
}

// TestDeleteDuringShipLeavesNoOrphan: a session deleted through the
// router while a ship of it is in flight leaves no copy on the standby.
// The standby holds the ship's snapshot PUT until the delete has had
// its chance to run; whichever order the two then take, the standby
// ends up holding nothing the router's table lacks.
func TestDeleteDuringShipLeavesNoOrphan(t *testing.T) {
	var hold atomic.Bool
	arrived, release := make(chan struct{}), make(chan struct{})
	tc := startCluster(t, clusterConfig{backends: 1, standby: true,
		wrapStandby: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPut && hold.CompareAndSwap(true, false) {
					close(arrived)
					<-release
				}
				h.ServeHTTP(w, r)
			})
		}})
	cl := newTestClient(tc, 22, false)
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, genTrace(t, "em3d", 3).Events[:50]); err != nil {
		t.Fatal(err)
	}

	hold.Store(true)
	shipped := make(chan int, 1)
	go func() { shipped <- tc.router.ShipNow() }()
	<-arrived
	deleted := make(chan error, 1)
	go func() { deleted <- cl.DeleteSession(sess.ID) }()
	select {
	case err := <-deleted:
		deleted <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	<-shipped
	if err := <-deleted; err != nil {
		t.Fatalf("delete: %v", err)
	}
	if n := len(tc.status(t).Sessions); n != 0 {
		t.Fatalf("router's table lists %d sessions after the delete, want 0", n)
	}
	tc.checkNames(t)
}

// TestDeleteClaimsEntry: while the home holds one delete's DELETE, a
// second delete of the session and a restore of its id run through the
// router. Only the first delete reaches the home: the second answers 404
// and the restore 409 until the first has unlinked the entry. A session
// restored under the id afterwards keeps its copy, so the table and the
// home agree and its stats answer.
func TestDeleteClaimsEntry(t *testing.T) {
	var hold atomic.Bool
	arrived, release := make(chan struct{}), make(chan struct{})
	srv := serve.NewServer(serve.Options{})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete && hold.CompareAndSwap(true, false) {
			close(arrived)
			<-release
		}
		h.ServeHTTP(w, r)
	}))
	b := &testBackend{srv: srv, ts: ts, url: ts.URL}
	defer b.kill()
	tc := startClusterOver(t, []*testBackend{b})

	code, _, body := tc.doRaw(t, "POST", "/v1/sessions", []byte(`{"scheme":"last(dir)1"}`),
		map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	path := "/v1/sessions/" + sessionID(t, body)
	code, _, snap := tc.doRaw(t, "GET", path+"/snapshot", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d: %s", code, snap)
	}
	restore := func() int {
		code, _, _ := tc.doRaw(t, "PUT", path+"/snapshot", snap,
			map[string]string{"Content-Type": "application/octet-stream"})
		return code
	}

	hold.Store(true)
	first := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodDelete, tc.url+path, nil)
		if err != nil {
			first <- 0
			return
		}
		resp, err := tc.ts.Client().Do(req)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-arrived:
	case code := <-first:
		t.Fatalf("the first delete answered %d before it reached the home", code)
	}
	second, _, _ := tc.doRaw(t, "DELETE", path, nil, nil)
	restored := restore()
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first delete: %d", code)
	}
	if restored != http.StatusCreated {
		if code := restore(); code != http.StatusCreated {
			t.Fatalf("restore after the delete: %d", code)
		}
	}
	tc.checkNames(t)
	if code, _, body := tc.doRaw(t, "GET", path+"/stats", nil, nil); code != http.StatusOK {
		t.Fatalf("stats of the restored session: %d: %s", code, body)
	}
	if second != http.StatusNotFound || restored != http.StatusConflict {
		t.Fatalf("while the first delete ran: second delete %d, restore %d; want 404 and 409", second, restored)
	}
}

// TestCreateSkipsIDsBackendsHold: a router that starts with an empty
// table over backends that already hold sessions (a router restart)
// mints ids those backends hold. Each backend 409 moves the create to
// the next id; a create that meets only taken ids for maxCreateAttempts
// tries answers 503, and the next create carries on from there.
func TestCreateSkipsIDsBackendsHold(t *testing.T) {
	b := startBackend(t, nil)
	defer b.kill()
	first := startClusterOver(t, []*testBackend{b})
	req := []byte(`{"scheme":"last(dir)1","shards":1}`)
	hdr := map[string]string{"Content-Type": "application/json"}
	for i := 1; i <= 10; i++ {
		if code, _, body := first.doRaw(t, "POST", "/v1/sessions", req, hdr); code != http.StatusCreated {
			t.Fatalf("create %d: %d: %s", i, code, body)
		}
	}

	restarted := startClusterOver(t, []*testBackend{b})
	code, _, body := restarted.doRaw(t, "POST", "/v1/sessions", req, hdr)
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("no free session id")) {
		t.Fatalf("create over 8 taken ids: %d: %s", code, body)
	}
	code, _, body = restarted.doRaw(t, "POST", "/v1/sessions", req, hdr)
	if code != http.StatusCreated {
		t.Fatalf("create past the taken ids: %d: %s", code, body)
	}
	if id := sessionID(t, body); id != "c11" {
		t.Fatalf("create past c1..c10 got %s, want c11", id)
	}
	if ids := b.sessionIDs(t); len(ids) != 11 || !ids["c11"] {
		t.Fatalf("backend holds %v, want c1..c11", ids)
	}
}

// TestStatusReadsMetrics: the /v1/cluster tallies and the cluster_*
// counters at /metrics are one count, and a router built without a
// registry still serves /metrics.
func TestStatusReadsMetrics(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2, standby: true})
	cl := newTestClient(tc, 23, false)
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	tc.router.ShipNow()
	home := tc.homeOf(t, sess.ID)
	target := tc.backends[0].url
	if target == home {
		target = tc.backends[1].url
	}
	if code, body := tc.migrate(t, sess.ID, target); code != http.StatusOK {
		t.Fatalf("migrate: %d: %s", code, body)
	}
	// A migration to the session's current home has nothing to move and
	// completes at once.
	if code, body := tc.migrate(t, sess.ID, target); code != http.StatusOK {
		t.Fatalf("migrate to the current home: %d: %s", code, body)
	}
	tc.backendByURL(t, target).kill()
	tc.router.CheckNow()

	st := tc.status(t)
	if st.Migrations != 2 || st.Ships != 1 || st.Failovers != 1 {
		t.Fatalf("status tallies %+v, want 2 migrations, 1 ship, 1 failover", st)
	}
	code, _, body := tc.doRaw(t, "GET", "/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics without a registry: %d: %s", code, body)
	}
	for name, v := range map[string]int64{
		"cluster_migrations_total":       st.Migrations,
		"cluster_snapshot_ships_total":   st.Ships,
		"cluster_failovers_total":        st.Failovers,
		"cluster_lost_sessions_total":    st.Lost,
		"cluster_migration_aborts_total": st.MigrationAborts,
		"cluster_parked_total":           st.Parked,
	} {
		if line := fmt.Sprintf("%s %d\n", name, v); !strings.Contains(string(body), line) {
			t.Errorf("metrics lack %q:\n%s", line, body)
		}
	}
}

// TestMigrateOffStandbyKeepsCopy: a session that failed over to the
// standby and then migrates to a serving backend leaves its copy on the
// standby, where its shipped mark says it is. When that backend dies
// too, the session fails over to the copy and keeps serving from the
// state it migrated with.
func TestMigrateOffStandbyKeepsCopy(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2, standby: true})
	cl := newTestClient(tc, 24, false)
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
	tc.backendByURL(t, home).kill()
	tc.router.CheckNow()
	if _, err := cl.PostEvents(sess.ID, evs[50:100]); err != nil {
		t.Fatal(err)
	}

	target := tc.backends[0].url
	if target == home {
		target = tc.backends[1].url
	}
	if code, body := tc.migrate(t, sess.ID, target); code != http.StatusOK {
		t.Fatalf("migrate off the standby: %d: %s", code, body)
	}
	tc.checkNames(t)
	if !tc.standby.sessionIDs(t)[sess.ID] {
		t.Fatal("migrating off the standby deleted its shipped copy")
	}
	if _, err := cl.PostEvents(sess.ID, evs[100:150]); err != nil {
		t.Fatal(err)
	}

	tc.backendByURL(t, target).kill()
	tc.router.CheckNow()
	if _, err := cl.PostEvents(sess.ID, evs[150:200]); err != nil {
		t.Fatalf("post after the second failover: %v", err)
	}
	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 150 {
		t.Fatalf("events %d, want 150: the 100 the copy holds and 50 posted since", st.Events)
	}
}
