package cluster

// White-box tests for the routing internals black-box tests cannot
// time: the park bound, the flip-timeout refusal, and the stale-route
// re-resolve (which needs a hook inside the resolve→forward window).

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// TestRouteParkBound pins the park accounting on one entry: requests
// arriving during a migration park up to the bound, the next one is
// refused with errParkOverflow, and an unpark frees the slot.
func TestRouteParkBound(t *testing.T) {
	e := &entry{cid: "c1", home: &node{url: "http://b"}}
	e.migrating = true
	e.flip = make(chan struct{})

	n, wait, err := e.route(1)
	if err != nil || n != nil || wait == nil {
		t.Fatalf("first request during a flip should park, got n=%v wait=%v err=%v", n, wait, err)
	}
	if _, _, err := e.route(1); !errors.Is(err, errParkOverflow) {
		t.Fatalf("second park past the bound: want errParkOverflow, got %v", err)
	}
	e.unpark()
	if _, wait, err := e.route(1); err != nil || wait == nil {
		t.Fatalf("park after an unpark should fit again, got wait=%v err=%v", wait, err)
	}
}

// TestResolveFlipTimeout: a parked request must not wait forever for a
// flip that never comes — it times out with a retryable 503.
func TestResolveFlipTimeout(t *testing.T) {
	rt := &Router{cm: newClusterMetrics(nil), parkWait: time.Millisecond}
	e := &entry{cid: "c1", home: &node{url: "http://b"}}
	e.migrating = true
	e.flip = make(chan struct{})

	_, err := rt.resolve(e)
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusServiceUnavailable {
		t.Fatalf("resolve against a stuck flip: want 503, got %v", err)
	}
	e.mu.Lock()
	parked := e.parked
	e.mu.Unlock()
	if parked != 0 {
		t.Fatalf("timed-out request left %d park slots held", parked)
	}
}

// TestResolveFlipCap: a request that keeps losing the re-resolve race
// to back-to-back migrations gives up after a bounded number of flips
// instead of livelocking.
func TestResolveFlipCap(t *testing.T) {
	rt := &Router{cm: newClusterMetrics(nil), parkWait: time.Second}
	e := &entry{cid: "c1", home: &node{url: "http://b"}}
	e.migrating = true
	flip := make(chan struct{})
	e.flip = flip
	// Every time the waiter wakes, the next "migration" is already in
	// progress: re-arm the flip channel forever.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			next := make(chan struct{})
			e.mu.Lock()
			old := e.flip
			e.flip = next
			e.mu.Unlock()
			close(old)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	_, err := rt.resolve(e)
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusServiceUnavailable {
		t.Fatalf("resolve under endless flips: want 503, got %v", err)
	}
}

// TestShipFailureClearsShippedMark pins the replacement-window contract
// of shipOne: the standby's old copy is deleted before the new PUT, so
// a PUT failure leaves the standby holding nothing. The shipped mark
// must say so — a stale true would steer a later failover onto a
// standby that 404s, instead of declaring the session lost.
func TestShipFailureClearsShippedMark(t *testing.T) {
	backend := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer backend.Close()

	// A standby that speaks just enough of the serve API: healthy,
	// accepts deletes, and fails restore PUTs once armed. A serve.Server
	// answers its stream upgrade, and the stream's frames come back to
	// this handler, the one its http.Server serves.
	var failPut atomic.Bool
	streams := serve.NewServer(serve.Options{}).Handler()
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/stream":
			streams.ServeHTTP(w, r)
		case r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
		case r.Method == http.MethodDelete:
			w.WriteHeader(http.StatusOK)
		case r.Method == http.MethodPut && failPut.Load():
			http.Error(w, `{"error":"disk full"}`, http.StatusInsufficientStorage)
		case r.Method == http.MethodPut:
			w.WriteHeader(http.StatusCreated)
		default:
			http.NotFound(w, r)
		}
	}))
	defer standby.Close()

	rt, err := New(Options{Backends: []string{backend.URL}, Standby: standby.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scheme":"last(dir)1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	var info serve.CreateSessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	e := rt.sessions[info.ID]
	rt.mu.Unlock()

	if n := rt.ShipNow(); n != 1 {
		t.Fatalf("first ship: %d sessions, want 1", n)
	}
	if _, _, shipped, _ := e.placement(); !shipped {
		t.Fatal("successful ship did not set the shipped mark")
	}

	failPut.Store(true)
	if n := rt.ShipNow(); n != 0 {
		t.Fatalf("failing ship reported %d sessions shipped", n)
	}
	if _, _, shipped, _ := e.placement(); shipped {
		t.Fatal("shipped mark still true after the delete+failed-PUT window destroyed the standby copy")
	}

	// The consequence under failover: with no standby copy the session
	// is declared lost, not routed onto a 404.
	rt.markDown(rt.backends[0])
	if _, _, _, lost := e.placement(); !lost {
		t.Fatal("failover after a failed ship did not declare the session lost")
	}
	if st := rt.Status(); st.Failovers != 0 || st.Lost != 1 {
		t.Fatalf("want 0 failovers and 1 lost, got %d/%d", st.Failovers, st.Lost)
	}
}

// TestStaleRouteRetry drives the 404 re-resolve path end to end: a
// request resolves its route, then — inside the resolve→forward window
// — the session moves out from under it. The forward hits the old home,
// gets 404, notices the table changed, and retries against the new home
// exactly once. The hook is the only way to land deterministically in
// that window.
func TestStaleRouteRetry(t *testing.T) {
	b1 := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer b1.Close()
	b2 := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer b2.Close()

	rt, err := New(Options{Backends: []string{b1.URL, b2.URL}, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	post := func(url, body, ctype string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	code, body := post(ts.URL+"/v1/sessions", `{"scheme":"last(dir)1"}`, "application/json")
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	var info serve.CreateSessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	cid := info.ID

	rt.mu.Lock()
	e := rt.sessions[cid]
	rt.mu.Unlock()
	oldHome, _, _, _ := e.placement()
	var newHome *node
	for _, n := range rt.backends {
		if n != oldHome {
			newHome = n
		}
	}

	// The hook fires in the stale window: move the backend copy to the
	// other node and flip the table, leaving the caller's resolved
	// route pointing at a session its backend no longer has.
	fired := false
	testHookPreForward = func(id string) {
		if fired || id != cid {
			return
		}
		fired = true
		snap, err := http.Get(oldHome.url + "/v1/sessions/" + cid + "/snapshot")
		if err != nil {
			t.Error(err)
			return
		}
		data, _ := io.ReadAll(snap.Body)
		snap.Body.Close()
		if snap.StatusCode != http.StatusOK {
			t.Errorf("snapshot from old home: %d: %s", snap.StatusCode, data)
			return
		}
		req, _ := http.NewRequest(http.MethodPut, newHome.url+"/v1/sessions/"+cid+"/snapshot", bytes.NewReader(data))
		put, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, put.Body)
		put.Body.Close()
		if put.StatusCode != http.StatusCreated {
			t.Errorf("restore on new home: %d", put.StatusCode)
			return
		}
		del, _ := http.NewRequest(http.MethodDelete, oldHome.url+"/v1/sessions/"+cid, nil)
		if resp, err := http.DefaultClient.Do(del); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		e.mu.Lock()
		e.home = newHome
		e.mu.Unlock()
	}
	defer func() { testHookPreForward = nil }()

	code, body = post(ts.URL+"/v1/sessions/"+cid+"/events",
		`[{"pid":0,"pc":64,"dir":1,"addr":4096,"inv_readers":0}]`, "application/json")
	if code != http.StatusOK {
		t.Fatalf("post through the stale window: %d: %s", code, body)
	}
	if !fired {
		t.Fatal("the pre-forward hook never fired")
	}
	if got := rt.cm.staleRetries.Value(); got != 1 {
		t.Fatalf("stale retries %d, want exactly 1", got)
	}

	// The session stayed whole: its stats live on the new home under
	// the cluster id.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + cid + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != cid || st.Events != 1 {
		t.Fatalf("post-retry stats: %+v, want id %s with 1 event", st, cid)
	}
}
