package cluster_test

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/cluster"
	"cohpredict/internal/serve"
)

// waitFor polls until the condition holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBackgroundLoops runs the router the way production does — health
// and replication on timers instead of explicit CheckNow/ShipNow — and
// proves the loops do their jobs: the ship loop replicates a live
// session to the standby unprompted, and after the home dies the
// health loop notices and fails the session over, all without a single
// manual nudge.
func TestBackgroundLoops(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 2, standby: true, mod: func(o *cluster.Options) {
		o.HealthInterval = 2 * time.Millisecond
		o.ShipInterval = 2 * time.Millisecond
	}})

	code, _, body := tc.doRaw(t, "POST", "/v1/sessions",
		[]byte(`{"scheme":"last(dir)1"}`),
		map[string]string{"Content-Type": "application/json"})
	if code != 201 {
		t.Fatalf("create: %d: %s", code, body)
	}
	id := sessionID(t, body)
	path := "/v1/sessions/" + id + "/events"
	evBody := []byte(`[{"pid":0,"pc":64,"dir":1,"addr":4096,"inv_readers":0}]`)
	hdr := map[string]string{"Content-Type": "application/json"}
	if code, _, body := tc.doRaw(t, "POST", path, evBody, hdr); code != 200 {
		t.Fatalf("post: %d: %s", code, body)
	}

	waitFor(t, "the ship loop to replicate the session", func() bool {
		return tc.status(t).Ships >= 1
	})

	home := tc.homeOf(t, id)
	tc.backendByURL(t, home).kill()
	waitFor(t, "the health loop to fail the session over", func() bool {
		st := tc.status(t)
		return st.Failovers >= 1
	})

	st := tc.status(t)
	if st.Lost != 0 {
		t.Fatalf("shipped session was declared lost: %+v", st)
	}
	for _, s := range st.Sessions {
		if s.ID == id && s.Backend != tc.standby.url {
			t.Fatalf("session %s homed on %s after failover, want the standby %s", id, s.Backend, tc.standby.url)
		}
	}
	// The failed-over session keeps serving from the standby copy.
	if code, _, body := tc.doRaw(t, "POST", path, evBody, hdr); code != 200 {
		t.Fatalf("post after failover: %d: %s", code, body)
	}
}

// TestCloseClosesBackendConns: Close closes the connections the router
// opened to a backend, by proxying and by probing, so that none of them
// holds the backend's graceful shutdown open.
func TestCloseClosesBackendConns(t *testing.T) {
	var mu sync.Mutex
	open := make(map[net.Conn]bool)
	srv := serve.NewServer(serve.Options{})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	ts.Start()
	b := &testBackend{srv: srv, ts: ts, url: ts.URL}
	defer b.kill()
	tc := startClusterOver(t, []*testBackend{b})

	code, _, body := tc.doRaw(t, "POST", "/v1/sessions", []byte(`{"scheme":"last(dir)1"}`),
		map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	tc.router.CheckNow()
	tc.router.Close()
	waitFor(t, "the router's connections to the backend to close", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(open) == 0
	})
}

// TestNewRejectsBadOptions pins New's validation surface.
func TestNewRejectsBadOptions(t *testing.T) {
	for name, opts := range map[string]cluster.Options{
		"no backends":        {},
		"bad scheme":         {Backends: []string{"ftp://host:1"}},
		"no host":            {Backends: []string{"http://"}},
		"unparseable":        {Backends: []string{"http://bad host/"}},
		"duplicate backend":  {Backends: []string{"http://a:1", "http://a:1"}},
		"standby bad scheme": {Backends: []string{"http://a:1"}, Standby: "ws://b:1"},
		"standby is backend": {Backends: []string{"http://a:1"}, Standby: "http://a:1"},
	} {
		if _, err := cluster.New(opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Trailing slashes normalize away rather than erroring (or
	// duplicating a ring entry).
	rt, err := cluster.New(cluster.Options{Backends: []string{"http://a:1/"}, Standby: "http://b:1/"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	st := rt.Status()
	for _, b := range st.Backends {
		if strings.HasSuffix(b.URL, "/") {
			t.Fatalf("backend URL %q kept its trailing slash", b.URL)
		}
	}
}

// TestEncodeRejectsInvalid pins the encoder halves of the control
// codecs: an invalid document refuses to serialize instead of
// producing bytes its own decoder would bounce.
func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := cluster.EncodeMigrateRequest(&cluster.MigrateRequest{Session: "", Target: "t"}); err == nil {
		t.Error("encoded a migrate request with no session")
	}
	if _, err := cluster.EncodeClusterStatus(&cluster.ClusterStatus{}); err == nil {
		t.Error("encoded a cluster status with no backends")
	}
}
