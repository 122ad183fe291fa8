package cluster_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"cohpredict/internal/cluster"
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
