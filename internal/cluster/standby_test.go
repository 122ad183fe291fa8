package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/cluster"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// postKeyed posts a JSON batch under key through the router,
// acknowledging ack unless it is empty, and returns the status and body.
func (tc *testCluster) postKeyed(t *testing.T, id, key, ack string, body []byte) (int, []byte) {
	t.Helper()
	hdr := map[string]string{"Content-Type": "application/json", "Idempotency-Key": key}
	if ack != "" {
		hdr["Idempotency-Ack"] = ack
	}
	code, _, data := tc.doRaw(t, "POST", "/v1/sessions/"+id+"/events", body, hdr)
	return code, data
}

// errorCode decodes the machine code of an error envelope.
func errorCode(body []byte) string {
	var env serve.ErrorResponse
	_ = json.Unmarshal(body, &env)
	return env.Code
}

// TestAckedKeyRefusedAfterFailover: the router relays Idempotency-Ack,
// so a key acknowledged on the home is refused there, and the shipped
// copy carries the acknowledgement: after the home dies, a stale
// duplicate of the key is refused by the standby too, while the
// unacknowledged key still replays. Stats through the router show the
// cache as the backend measures it.
func TestAckedKeyRefusedAfterFailover(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 1, standby: true})
	code, _, body := tc.doRaw(t, "POST", "/v1/sessions", []byte(`{"scheme":"last(dir)1"}`),
		map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	id := sessionID(t, body)
	evs := []byte(`[{"pid":0,"pc":64,"dir":1,"addr":4096,"inv_readers":2}]`)
	if code, body := tc.postKeyed(t, id, "k1", "", evs); code != http.StatusOK {
		t.Fatalf("post k1: %d: %s", code, body)
	}
	code, second := tc.postKeyed(t, id, "k2", "k1", evs)
	if code != http.StatusOK {
		t.Fatalf("post k2: %d: %s", code, second)
	}
	if code, body := tc.postKeyed(t, id, "k1", "", evs); code != http.StatusConflict || errorCode(body) != serve.CodeKeyAcknowledged {
		t.Fatalf("duplicate of k1 at the home: %d: %s", code, body)
	}
	var st serve.StatsResponse
	code, _, body = tc.doRaw(t, "GET", "/v1/sessions/"+id+"/stats", nil, nil)
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("stats: %d: %s", code, body)
	}
	if st.Events != 2 || st.IdempotencyKeys != 2 || st.IdempotencyReplyBytes == 0 {
		t.Fatalf("stats through the router: %d events, %d keys, %d reply bytes; want 2 events, 2 keys and k2's reply",
			st.Events, st.IdempotencyKeys, st.IdempotencyReplyBytes)
	}

	if n := tc.router.ShipNow(); n != 1 {
		t.Fatalf("ship: %d sessions, want 1", n)
	}
	tc.backends[0].kill()
	// The first post after the kill reaches the dead home and fails the
	// session over; its retry reaches the standby's copy.
	code, body = tc.postKeyed(t, id, "k1", "", evs)
	if code == http.StatusBadGateway {
		code, body = tc.postKeyed(t, id, "k1", "", evs)
	}
	if code != http.StatusConflict || errorCode(body) != serve.CodeKeyAcknowledged {
		t.Fatalf("duplicate of k1 on the failed-over copy: %d: %s", code, body)
	}
	if code, body := tc.postKeyed(t, id, "k2", "", evs); code != http.StatusOK || string(body) != string(second) {
		t.Fatalf("replay of k2 on the failed-over copy: %d: %s, want %s", code, body, second)
	}
	if tc.homeOf(t, id) != tc.standby.url {
		t.Fatalf("session %s is not homed on the standby", id)
	}
}

// TestFailedSnapshotGetClearsShippedMark: a ship whose snapshot GET the
// live home refuses clears the session's shipped mark and counts in
// snapshot_ship_failures, since the standby's older copy falls behind
// while the home keeps training. When the home then dies, the session is
// lost: its next post gets 410 session_lost, not a reply from the older
// copy.
func TestFailedSnapshotGetClearsShippedMark(t *testing.T) {
	var failGet atomic.Bool
	tc := startCluster(t, clusterConfig{backends: 1, standby: true, wrapBackend: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failGet.Load() && r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/snapshot") {
				http.Error(w, `{"error":"snapshot too large"}`, http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}})
	code, _, body := tc.doRaw(t, "POST", "/v1/sessions", []byte(`{"scheme":"last(dir)1"}`),
		map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	id := sessionID(t, body)
	evs := []byte(`[{"pid":0,"pc":64,"dir":1,"addr":4096,"inv_readers":2}]`)
	if code, body := tc.postKeyed(t, id, "k1", "", evs); code != http.StatusOK {
		t.Fatalf("post k1: %d: %s", code, body)
	}
	if n := tc.router.ShipNow(); n != 1 {
		t.Fatalf("first ship: %d sessions, want 1", n)
	}

	failGet.Store(true)
	if code, body := tc.postKeyed(t, id, "k2", "k1", evs); code != http.StatusOK {
		t.Fatalf("post k2: %d: %s", code, body)
	}
	if n := tc.router.ShipNow(); n != 0 {
		t.Fatalf("a ship whose GET failed reported %d sessions shipped", n)
	}
	st := tc.status(t)
	if len(st.Sessions) != 1 || st.Sessions[0].Shipped || st.ShipFailures != 1 || st.Ships != 1 {
		t.Fatalf("after the failed ship: %+v; want the session not shipped, 1 ship and 1 ship failure", st)
	}

	tc.backends[0].kill()
	code, body = tc.postKeyed(t, id, "k3", "k2", evs)
	if code == http.StatusBadGateway {
		code, body = tc.postKeyed(t, id, "k3", "k2", evs)
	}
	if code != http.StatusGone || errorCode(body) != cluster.CodeSessionLost {
		t.Fatalf("post after the home died: %d: %s; want 410 %s", code, body, cluster.CodeSessionLost)
	}
}

// shardWorkers counts the shard worker goroutines alive in the process.
func shardWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "serve.(*shard).run(")
}

// settledWorkers waits up to a second for the shard worker count to
// reach want and returns the last count seen.
func settledWorkers(want int) int {
	n := shardWorkers()
	for deadline := time.Now().Add(time.Second); n != want && time.Now().Before(deadline); n = shardWorkers() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// metrics reads a node's registry through its /metrics JSON.
func (b *testBackend) metrics(t testing.TB) obs.Snapshot {
	t.Helper()
	req, err := http.NewRequest("GET", b.url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding %s/metrics: %v", b.url, err)
	}
	return snap
}

// TestShippedCopiesStayDormant: after one ship sweep the standby holds
// each session as its snapshot's bytes and nothing more: its /metrics
// count one dormant session per shipped one, holding exactly the bytes
// of the snapshots the homes serve, and the standby starts no shard
// worker. The first post after a failover wakes the one copy it reaches.
func TestShippedCopiesStayDormant(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2, standby: true})
	schemes := []string{"last(dir)1", "union(pid+dir+add10)2[forwarded]", "pas(pid+add6)2", "sticky(dir+add8)1"}
	ids := make([]string, len(schemes))
	evs := []byte(`[{"pid":0,"pc":64,"dir":1,"addr":4096,"inv_readers":2},{"pid":3,"pc":68,"dir":2,"addr":4160,"inv_readers":1}]`)
	for i, sc := range schemes {
		code, _, body := tc.doRaw(t, "POST", "/v1/sessions", []byte(fmt.Sprintf(`{"scheme":%q,"shards":2}`, sc)),
			map[string]string{"Content-Type": "application/json"})
		if code != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", sc, code, body)
		}
		ids[i] = sessionID(t, body)
		if code, body := tc.postKeyed(t, ids[i], "k1", "", evs); code != http.StatusOK {
			t.Fatalf("post to %s: %d: %s", ids[i], code, body)
		}
	}
	workers := shardWorkers()

	if n := tc.router.ShipNow(); n != len(ids) {
		t.Fatalf("ship: %d sessions, want %d", n, len(ids))
	}
	shipped := 0
	for _, id := range ids {
		code, _, body := tc.doRaw(t, "GET", "/v1/sessions/"+id+"/snapshot", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("snapshot of %s: %d", id, code)
		}
		shipped += len(body)
	}
	m := tc.standby.metrics(t)
	if n, size, wakes := m.Gauges["serve_sessions_dormant"], m.Gauges["serve_dormant_bytes"], m.Counters["serve_session_wakes_total"]; n != float64(len(ids)) || size != float64(shipped) || wakes != 0 {
		t.Fatalf("standby: %v dormant sessions holding %v bytes, %d wakes; want %d holding the %d shipped, 0 wakes",
			n, size, wakes, len(ids), shipped)
	}
	if got := settledWorkers(workers); got != workers {
		t.Fatalf("%d shard workers after the ship, %d before: the standby built its copies", got, workers)
	}

	home := tc.backendByURL(t, tc.homeOf(t, ids[0]))
	home.kill()
	code, body := tc.postKeyed(t, ids[0], "k2", "k1", evs)
	if code == http.StatusBadGateway {
		code, body = tc.postKeyed(t, ids[0], "k2", "k1", evs)
	}
	if code != http.StatusOK {
		t.Fatalf("post after the failover: %d: %s", code, body)
	}
	m = tc.standby.metrics(t)
	if n, wakes := m.Gauges["serve_sessions_dormant"], m.Counters["serve_session_wakes_total"]; n != float64(len(ids)-1) || wakes != 1 {
		t.Fatalf("standby after the failover: %v dormant sessions, %d wakes; want %d and 1", n, wakes, len(ids)-1)
	}
}
