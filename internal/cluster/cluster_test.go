package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	resclient "cohpredict/internal/client"
	"cohpredict/internal/cluster"
	"cohpredict/internal/fault"
	"cohpredict/internal/machine"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// genTrace simulates a workload on the paper's 16-node machine and
// returns the event trace (the serve test suite's helper, relocated).
func genTrace(t testing.TB, bench string, seed int64) *trace.Trace {
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

// testBackend is one in-process predserve node the harness can kill
// mid-test like a crashed process (listener closed, no drain).
type testBackend struct {
	srv  *serve.Server
	ts   *httptest.Server
	url  string
	dead bool
}

func (b *testBackend) kill() {
	if b.dead {
		return
	}
	b.dead = true
	b.ts.Close()
	_ = b.srv.Shutdown()
}

// testCluster is N fault-injectable backends plus an optional standby
// behind one router, all in-process.
type testCluster struct {
	router   *cluster.Router
	ts       *httptest.Server
	url      string
	backends []*testBackend
	standby  *testBackend
}

func (tc *testCluster) close() {
	tc.ts.Close()
	tc.router.Close()
	for _, b := range tc.backends {
		b.kill()
	}
	if tc.standby != nil {
		tc.standby.kill()
	}
}

// backendByURL resolves one of the harness's serving backends.
func (tc *testCluster) backendByURL(t testing.TB, url string) *testBackend {
	t.Helper()
	for _, b := range tc.backends {
		if b.url == url {
			return b
		}
	}
	t.Fatalf("no test backend at %s", url)
	return nil
}

// clusterConfig tweaks startCluster.
type clusterConfig struct {
	backends int
	standby  bool
	// injFor, when non-nil, supplies each serving backend's injector
	// (the standby always runs fault-free, like a real warm spare).
	injFor func(i int) *fault.Injector
	// mod, when non-nil, edits the router options before New.
	mod func(*cluster.Options)
	// wrapStandby, when non-nil, wraps the standby's handler.
	wrapStandby func(http.Handler) http.Handler
	// wrapBackend, when non-nil, wraps each serving backend's handler.
	wrapBackend func(http.Handler) http.Handler
}

func startBackend(t testing.TB, inj *fault.Injector) *testBackend {
	t.Helper()
	return startBackendSrv(t, serve.NewServer(serve.Options{Fault: inj}))
}

// startBackendSrv wraps a caller-built serve.Server (e.g. one with a
// metrics registry) as a test backend.
func startBackendSrv(t testing.TB, srv *serve.Server) *testBackend {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return &testBackend{srv: srv, ts: ts, url: ts.URL}
}

// startClusterOver fronts pre-built backends with a fresh router (the
// backends' lifetimes stay with the caller).
func startClusterOver(t testing.TB, backends []*testBackend) *testCluster {
	t.Helper()
	tc := &testCluster{backends: backends}
	var urls []string
	for _, b := range backends {
		urls = append(urls, b.url)
	}
	rt, err := cluster.New(cluster.Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.ts = httptest.NewServer(rt.Handler())
	tc.url = tc.ts.URL
	t.Cleanup(func() { tc.ts.Close(); rt.Close() })
	return tc
}

// sessionID extracts the id from a create/restore echo.
func sessionID(t testing.TB, body []byte) string {
	t.Helper()
	var info serve.CreateSessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decoding session echo %s: %v", body, err)
	}
	return info.ID
}

func startCluster(t testing.TB, cfg clusterConfig) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var urls []string
	for i := 0; i < cfg.backends; i++ {
		var inj *fault.Injector
		if cfg.injFor != nil {
			inj = cfg.injFor(i)
		}
		srv := serve.NewServer(serve.Options{Fault: inj})
		h := srv.Handler()
		if cfg.wrapBackend != nil {
			h = cfg.wrapBackend(h)
		}
		ts := httptest.NewServer(h)
		b := &testBackend{srv: srv, ts: ts, url: ts.URL}
		tc.backends = append(tc.backends, b)
		urls = append(urls, b.url)
	}
	opts := cluster.Options{Backends: urls}
	if cfg.standby {
		srv := serve.NewServer(serve.Options{Registry: obs.New()}) // its /metrics show the dormant copies
		h := srv.Handler()
		if cfg.wrapStandby != nil {
			h = cfg.wrapStandby(h)
		}
		ts := httptest.NewServer(h)
		tc.standby = &testBackend{srv: srv, ts: ts, url: ts.URL}
		opts.Standby = tc.standby.url
	}
	if cfg.mod != nil {
		cfg.mod(&opts)
	}
	rt, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.ts = httptest.NewServer(rt.Handler())
	tc.url = tc.ts.URL
	t.Cleanup(tc.close)
	return tc
}

// doRaw issues one plain HTTP request at the router.
func (tc *testCluster) doRaw(t testing.TB, method, path string, body []byte, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, tc.url+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := tc.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// status fetches and strictly decodes /v1/cluster.
func (tc *testCluster) status(t testing.TB) *cluster.ClusterStatus {
	t.Helper()
	code, _, body := tc.doRaw(t, "GET", "/v1/cluster", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/cluster: %d: %s", code, body)
	}
	st, err := cluster.DecodeClusterStatus(body)
	if err != nil {
		t.Fatalf("decoding cluster status: %v", err)
	}
	return st
}

// sessionIDs lists the ids a node holds.
func (b *testBackend) sessionIDs(t testing.TB) map[string]bool {
	t.Helper()
	resp, err := http.Get(b.url + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list serve.SessionListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("listing %s: %v", b.url, err)
	}
	ids := make(map[string]bool, len(list.Sessions))
	for _, s := range list.Sessions {
		ids[s.ID] = true
	}
	return ids
}

// checkNames lists every live node's sessions and checks that they agree
// with the router's table: every id a node holds is in the table, every
// table entry is held by its home, and the standby holds only shipped
// sessions.
func (tc *testCluster) checkNames(t testing.TB) {
	t.Helper()
	rows := make(map[string]cluster.SessionStatus)
	for _, s := range tc.status(t).Sessions {
		rows[s.ID] = s
	}
	held := make(map[string]map[string]bool)
	for _, b := range append(append([]*testBackend(nil), tc.backends...), tc.standby) {
		if b == nil || b.dead {
			continue
		}
		held[b.url] = b.sessionIDs(t)
		for id := range held[b.url] {
			row, ok := rows[id]
			switch {
			case !ok:
				t.Errorf("%s holds session %s, which the router's table lacks", b.url, id)
			case b == tc.standby && !row.Shipped:
				t.Errorf("the standby holds session %s, which was never shipped", id)
			}
		}
	}
	for id, row := range rows {
		if ids, live := held[row.Backend]; live && !ids[id] {
			t.Errorf("the table homes session %s on %s, which does not hold it", id, row.Backend)
		}
	}
}

// migrate POSTs one migration through the control plane.
func (tc *testCluster) migrate(t testing.TB, session, target string) (int, []byte) {
	t.Helper()
	body, err := cluster.EncodeMigrateRequest(&cluster.MigrateRequest{Session: session, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	code, _, resp := tc.doRaw(t, "POST", "/v1/cluster/migrate", body, map[string]string{"Content-Type": "application/json"})
	return code, resp
}

// homeOf reads a session's current backend from the status document.
func (tc *testCluster) homeOf(t testing.TB, id string) string {
	t.Helper()
	for _, s := range tc.status(t).Sessions {
		if s.ID == id {
			return s.Backend
		}
	}
	t.Fatalf("session %s not in cluster status", id)
	return ""
}

func newTestClient(tc *testCluster, seed int64, binary bool) *resclient.Client {
	return resclient.New(resclient.Options{
		BaseURL:    tc.url,
		Seed:       seed,
		MaxRetries: 64,
		Sleep:      func(time.Duration) {}, // count, don't wait
		Binary:     binary,
	})
}

// TestClusterBasics drives the whole proxied API surface through a
// 3-backend router: create, list, events (both transports), stats,
// snapshot round-trip, delete — every response in the cluster session
// namespace, never a backend-local id.
func TestClusterBasics(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 3})
	cl := newTestClient(tc, 1, true)

	tr := genTrace(t, "em3d", 3)
	evs := tr.Events

	sess, err := cl.CreateSession(serve.CreateSessionRequest{
		Scheme: "union(dir+add8)2[forwarded]", Shards: 2,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !strings.HasPrefix(sess.ID, "c") {
		t.Fatalf("cluster session id %q not in the cluster namespace", sess.ID)
	}

	preds, err := cl.PostEvents(sess.ID, evs[:200])
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if len(preds) != 200 {
		t.Fatalf("got %d predictions, want 200", len(preds))
	}

	st, err := cl.SessionStats(sess.ID)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.ID != sess.ID {
		t.Fatalf("stats id %q, want the cluster id %q", st.ID, sess.ID)
	}
	if st.Events != 200 {
		t.Fatalf("stats events %d, want 200", st.Events)
	}

	// List reports the cluster namespace.
	code, _, body := tc.doRaw(t, "GET", "/v1/sessions", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, body)
	}
	var list serve.SessionListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != sess.ID {
		t.Fatalf("list = %+v, want exactly %s", list.Sessions, sess.ID)
	}

	// Snapshot through the router, restore as a new cluster session,
	// and check the copy continues identically to the original.
	snap, err := cl.Snapshot(sess.ID)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := cl.Restore("copy", snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	p1, err := cl.PostEvents(sess.ID, evs[200:400])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cl.PostEvents("copy", evs[200:400])
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("restored copy diverged at %d: %#x vs %#x", i, p2[i], p1[i])
		}
	}

	// A duplicate restore under a live id is refused.
	if _, err := cl.Restore("copy", snap); err == nil {
		t.Fatal("duplicate restore succeeded")
	}

	if err := cl.DeleteSession("copy"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.SessionStats("copy"); err == nil {
		t.Fatal("stats on deleted session succeeded")
	}

	cs := tc.status(t)
	if cs.Migrations != 0 || cs.Failovers != 0 {
		t.Fatalf("idle cluster reports lifecycle churn: %+v", cs)
	}
	if len(cs.Backends) != 3 {
		t.Fatalf("status lists %d backends, want 3", len(cs.Backends))
	}
}

// TestCreateSkipsRestoredID: restores register caller-named ids, and a
// migration or DR restore reuses ids of the exact "cN" form the create
// counter mints. A later create reaching that N must skip the taken id
// — not silently clobber the restored session's routing entry.
func TestCreateSkipsRestoredID(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 1})
	cl := newTestClient(tc, 5, false)
	evs := genTrace(t, "em3d", 3).Events

	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PostEvents(sess.ID, evs[:10]); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Restore under the id the NEXT create would mint ("c1" exists, so
	// the counter's next product is "c2") — the DR shape after a router
	// restart reset nextID.
	if _, err := cl.Restore("c2", snap); err != nil {
		t.Fatalf("restore as c2: %v", err)
	}

	sess2, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if sess2.ID == "c2" {
		t.Fatal("create re-minted the restored session's id c2")
	}
	// The restored session kept its routing entry and state (10 events
	// from the snapshot), and the new session is its own empty one.
	st, err := cl.SessionStats("c2")
	if err != nil {
		t.Fatalf("stats on restored session after create: %v", err)
	}
	if st.Events != 10 {
		t.Fatalf("restored session has %d events, want the snapshot's 10", st.Events)
	}
	st2, err := cl.SessionStats(sess2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Events != 0 {
		t.Fatalf("fresh session has %d events, want 0", st2.Events)
	}
	if got := len(tc.status(t).Sessions); got != 3 {
		t.Fatalf("cluster lists %d sessions, want 3 distinct", got)
	}
}

// TestClusterPlacementSpread creates enough sessions that consistent
// hashing must use more than one backend, and checks the status
// document's per-backend session counts agree with the routing table.
func TestClusterPlacementSpread(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 3})
	cl := newTestClient(tc, 2, false)
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := cl.CreateSession(serve.CreateSessionRequest{
			Scheme: "last(dir)1", Shards: 1,
		}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	st := tc.status(t)
	if len(st.Sessions) != n {
		t.Fatalf("status lists %d sessions, want %d", len(st.Sessions), n)
	}
	used, total := 0, 0
	for _, b := range st.Backends {
		total += b.Sessions
		if b.Sessions > 0 {
			used++
		}
	}
	if total != n {
		t.Fatalf("per-backend counts sum to %d, want %d", total, n)
	}
	if used < 2 {
		t.Fatalf("24 sessions all hashed to %d backend(s); the ring is not spreading", used)
	}
}

// TestClusterErrorSurface pins the router's refusal modes: unknown
// session ids, malformed and unsatisfiable migrations, and healthz
// degradation when backends die.
func TestClusterErrorSurface(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2})
	cl := newTestClient(tc, 3, false)

	if _, err := cl.SessionStats("c999"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("stats on unknown session: %v", err)
	}
	if _, err := cl.PostEvents("nope", genTrace(t, "em3d", 3).Events[:1]); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("post to unknown session: %v", err)
	}

	code, _, body := tc.doRaw(t, "POST", "/v1/cluster/migrate", []byte(`{"session":"c1"}`), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed migrate: %d: %s", code, body)
	}
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := tc.migrate(t, sess.ID, "http://127.0.0.1:1"); code != http.StatusBadRequest {
		t.Fatalf("migrate to unconfigured target: %d: %s", code, body)
	}
	if code, body := tc.migrate(t, "c999", tc.backends[0].url); code != http.StatusNotFound {
		t.Fatalf("migrate unknown session: %d: %s", code, body)
	}

	code, _, body = tc.doRaw(t, "GET", "/healthz", nil, nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz on a healthy cluster: %d: %s", code, body)
	}
	tc.backends[1].kill()
	tc.router.CheckNow()
	code, _, body = tc.doRaw(t, "GET", "/healthz", nil, nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"degraded"`)) {
		t.Fatalf("healthz with one dead backend: %d: %s", code, body)
	}
	tc.backends[0].kill()
	tc.router.CheckNow()
	code, _, _ = tc.doRaw(t, "GET", "/healthz", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no live backends: %d", code)
	}
	if _, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"}); err == nil {
		t.Fatal("create with no live backends succeeded")
	}
}

// TestClusterMetricsEndpoint checks the router exports its cluster_*
// series when given a registry, as Prometheus text and, for a request
// that accepts JSON, as the obs.Snapshot predserve also serves.
func TestClusterMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	tc := startCluster(t, clusterConfig{backends: 1, mod: func(o *cluster.Options) { o.Registry = reg }})
	cl := newTestClient(tc, 4, false)
	if _, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir)1"}); err != nil {
		t.Fatal(err)
	}
	code, _, body := tc.doRaw(t, "GET", "/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{"cluster_http_requests_total", "cluster_proxied_total", "cluster_backends_healthy"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics output missing %s:\n%s", want, body)
		}
	}
	code, hdr, body := tc.doRaw(t, "GET", "/metrics", nil, map[string]string{"Accept": "application/json"})
	var snap obs.Snapshot
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" || json.Unmarshal(body, &snap) != nil {
		t.Fatalf("metrics as JSON: %d %q: %s", code, hdr.Get("Content-Type"), body)
	}
	if _, ok := snap.Counters["cluster_http_requests_total"]; !ok {
		t.Fatalf("JSON metrics lack cluster_http_requests_total: %s", body)
	}
}

func isStatus(err error, status int) bool {
	var ae *resclient.APIError
	return errors.As(err, &ae) && ae.Status == status
}
