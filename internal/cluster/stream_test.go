package cluster_test

// Races on the router's COHWIRE2 streams: a backend shutting down under
// in-flight frames, the router closing under posts, a reset on one
// stream, and a pooled stream to a backend that restarted. make
// race-hammer runs each twenty times under the race detector.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/serve"
)

// streamEvents is a one-event JSON batch.
var streamEvents = []byte(`[{"pid":0,"pc":64,"dir":1,"addr":4096,"inv_readers":2}]`)

// postTimed posts a keyed batch to the router and reports the status
// (0 when the router answered nothing) and how long the answer took.
func postTimed(url, id, key string) (int, time.Duration) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sessions/"+id+"/events", bytes.NewReader(streamEvents))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, time.Since(t0)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0)
}

// createSession creates a last(dir)1 session through the router.
func createSession(t *testing.T, tc *testCluster) string {
	t.Helper()
	code, _, body := tc.doRaw(t, "POST", "/v1/sessions", []byte(`{"scheme":"last(dir)1"}`),
		map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	return sessionID(t, body)
}

// countingListener counts the connections it accepted that are still
// open, hijacked ones included.
type countingListener struct {
	net.Listener
	accepted, open atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	l.open.Add(1)
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.open.Add(-1) })
	return c.Conn.Close()
}

// startCountedBackend serves srv on a counting listener at addr
// ("127.0.0.1:0" for any port).
func startCountedBackend(t *testing.T, srv *serve.Server, addr string) (*testBackend, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener = cl
	ts.Start()
	b := &testBackend{srv: srv, ts: ts, url: ts.URL}
	t.Cleanup(b.kill)
	return b, cl
}

// TestShutdownRacesStreamFrames: a backend's Shutdown lands while frames
// are in flight on its streams. Every post gets an answer from the router
// well inside proxyTimeout: a frame that was in flight answers or fails at
// once, and a frame after the Shutdown fails at once. The backend answers
// nothing after its Shutdown, so a post begun after it gets the router's
// own 502 or, once the router has marked the backend down, 410.
func TestShutdownRacesStreamFrames(t *testing.T) {
	tc := startCluster(t, clusterConfig{backends: 1, wrapBackend: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				time.Sleep(200 * time.Microsecond) // keep frames in flight
			}
			h.ServeHTTP(w, r)
		})
	}})
	id := createSession(t, tc)

	const posters, perPoster = 4, 40
	var posted atomic.Int64
	var down atomic.Bool // set once Shutdown has returned
	shut := make(chan struct{})
	var mu sync.Mutex
	codes := make(map[int]int)
	var after []int // the codes of posts begun after Shutdown returned
	var slowest time.Duration
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				late := down.Load()
				code, took := postTimed(tc.url, id, fmt.Sprintf("g%d-%d", g, i))
				if posted.Add(1) == posters*perPoster/4 {
					close(shut)
				}
				mu.Lock()
				codes[code]++
				if late {
					after = append(after, code)
				}
				slowest = max(slowest, took)
				mu.Unlock()
			}
		}(g)
	}
	<-shut
	if err := tc.backends[0].srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	down.Store(true)
	wg.Wait()

	if codes[0] != 0 {
		t.Fatalf("%d posts got no answer from the router: %v", codes[0], codes)
	}
	if codes[http.StatusOK] == 0 || codes[http.StatusOK] == posters*perPoster {
		t.Fatalf("the Shutdown did not land among the posts: %v", codes)
	}
	if slowest > 2*time.Second {
		t.Fatalf("a post took %v; a frame waited on a closed stream", slowest)
	}
	if len(after) == 0 {
		t.Fatal("no post began after the Shutdown")
	}
	for _, code := range after {
		if code != http.StatusBadGateway && code != http.StatusGone {
			t.Fatalf("a post begun after the Shutdown got %d: the backend still answered", code)
		}
	}
}

// TestRouterCloseRacesPosts: Router.Close lands among posts. Every post
// still succeeds, since the handler stays usable, and once they are done
// the backends hold no open connection from the router.
func TestRouterCloseRacesPosts(t *testing.T) {
	b1, l1 := startCountedBackend(t, serve.NewServer(serve.Options{}), "127.0.0.1:0")
	b2, l2 := startCountedBackend(t, serve.NewServer(serve.Options{}), "127.0.0.1:0")
	tc := startClusterOver(t, []*testBackend{b1, b2})
	ids := []string{createSession(t, tc), createSession(t, tc)}

	const posters, perPoster = 4, 30
	var posted atomic.Int64
	closeNow := make(chan struct{})
	errs := make(chan string, posters*perPoster)
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				if code, _ := postTimed(tc.url, ids[g%2], fmt.Sprintf("g%d-%d", g, i)); code != http.StatusOK {
					errs <- fmt.Sprintf("poster %d post %d: %d", g, i, code)
				}
				if posted.Add(1) == posters*perPoster/2 {
					close(closeNow)
				}
			}
		}(g)
	}
	<-closeNow
	tc.router.Close()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	waitFor(t, "the router's streams to close", func() bool {
		return l1.open.Load() == 0 && l2.open.Load() == 0
	})
}

// TestResetFailsOnlyItsRequest: a handler that aborts its request (the
// chaos reset) closes the one stream that carried it. Posts in flight on
// other streams at that moment succeed, the aborted post alone fails, and
// the backend stays healthy. A reset on a reused stream is sent once more
// on a fresh stream, since the post is keyed, and no more.
func TestResetFailsOnlyItsRequest(t *testing.T) {
	var resets, arrived atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	tc := startCluster(t, clusterConfig{backends: 1, wrapBackend: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch key := r.Header.Get("Idempotency-Key"); {
			case strings.HasPrefix(key, "reset"):
				resets.Add(1)
				releaseOnce.Do(func() { close(release) })
				panic(http.ErrAbortHandler)
			case strings.HasPrefix(key, "held"):
				arrived.Add(1)
				<-release
			}
			h.ServeHTTP(w, r)
		})
	}})
	id := createSession(t, tc)

	// Three posts hold three streams while the reset lands on a fourth.
	const held = 3
	codes := make(chan int, held)
	for i := 0; i < held; i++ {
		go func(i int) {
			code, _ := postTimed(tc.url, id, fmt.Sprintf("held-%d", i))
			codes <- code
		}(i)
	}
	waitFor(t, "the held posts to reach the backend", func() bool { return arrived.Load() == held })
	if code, _ := postTimed(tc.url, id, "reset-1"); code != http.StatusBadGateway {
		t.Fatalf("the reset post: %d, want 502", code)
	}
	for i := 0; i < held; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("a post on another stream: %d, want 200", code)
		}
	}
	if n := resets.Load(); n != 1 {
		t.Fatalf("a reset on a fresh stream was sent %d times, want 1", n)
	}

	// The held posts left idle streams: a reset on one of them is resent
	// once, on a stream dialled for it.
	if code, _ := postTimed(tc.url, id, "reset-2"); code != http.StatusBadGateway {
		t.Fatalf("the second reset post: %d, want 502", code)
	}
	if n := resets.Load(); n != 3 {
		t.Fatalf("a reset on a reused stream was sent %d times in all, want 2", n-1)
	}
	if code, _ := postTimed(tc.url, id, "after"); code != http.StatusOK {
		t.Fatalf("a post after the resets: %d", code)
	}
	if st := tc.status(t); !st.Backends[0].Healthy || st.Lost != 0 {
		t.Fatalf("a reset marked the backend down or lost a session: %+v", st)
	}
}

// TestRestartedBackendRedialedOnce: a backend restarts on the same
// address, so the router's pooled stream to it is dead. A keyed post on
// that stream is sent again on one stream dialled for it, succeeds, and
// leaves the backend healthy.
func TestRestartedBackendRedialedOnce(t *testing.T) {
	b, _ := startCountedBackend(t, serve.NewServer(serve.Options{}), "127.0.0.1:0")
	tc := startClusterOver(t, []*testBackend{b})
	id := createSession(t, tc)
	if code, _ := postTimed(tc.url, id, "k1"); code != http.StatusOK {
		t.Fatalf("post: %d", code)
	}
	code, _, snap := tc.doRaw(t, "GET", "/v1/sessions/"+id+"/snapshot", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}

	addr := b.ts.Listener.Addr().String()
	b.kill()
	srv := serve.NewServer(serve.Options{})
	if _, err := srv.RestoreSnapshot(id, snap, nil); err != nil {
		t.Fatal(err)
	}
	_, l := startCountedBackend(t, srv, addr)

	if code, _ := postTimed(tc.url, id, "k2"); code != http.StatusOK {
		t.Fatalf("post after the restart: %d, want 200", code)
	}
	if n := l.accepted.Load(); n != 1 {
		t.Fatalf("the restarted backend accepted %d connections, want the one redial", n)
	}
	if st := tc.status(t); !st.Backends[0].Healthy {
		t.Fatalf("the restart marked the backend down: %+v", st)
	}
}
