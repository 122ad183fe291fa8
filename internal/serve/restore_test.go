package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/serve"
)

// status issues a request from any goroutine and returns its status, or
// 0 and the error: unlike the client's helpers it never calls Fatal.
func (c *client) status(method, path string, body []byte) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// snapshotOf builds a session on its own server, posts it a few keyed
// batches and returns its snapshot.
func snapshotOf(t *testing.T) []byte {
	t.Helper()
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "union(pid+dir+add10)2[forwarded]", Shards: 2}).ID
	for _, k := range []string{"a", "b", "c"} {
		c.postKeyed(id, k, sharingEvents(64), true)
	}
	data, _ := c.snapshot(id)
	return data
}

// TestConcurrentRestoreOneWinner: two PUTs of one snapshot under one id,
// both past the first id check before either inserts, end in one 201 and
// one 409, and the loser leaves no session behind.
func TestConcurrentRestoreOneWinner(t *testing.T) {
	data := snapshotOf(t)
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	// Each build waits for the other, so both pass the first id check
	// before either inserts; a restore that built under the server lock
	// would keep the other out, and its wait would time out instead.
	var arrived atomic.Int32
	both := make(chan struct{})
	defer serve.SetBuildHook(func(string) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(5 * time.Second):
		}
	})()
	codes := make([]int, 2)
	var done sync.WaitGroup
	for i := range codes {
		done.Add(1)
		go func() {
			defer done.Done()
			var err error
			if codes[i], err = c.status("PUT", "/v1/sessions/twin/snapshot", data); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if arrived.Load() != 2 {
		t.Fatalf("%d restores reached the build, want both at once", arrived.Load())
	}
	if !(codes[0] == http.StatusCreated && codes[1] == http.StatusConflict) &&
		!(codes[0] == http.StatusConflict && codes[1] == http.StatusCreated) {
		t.Fatalf("concurrent restores of one id: statuses %v, want one 201 and one 409", codes)
	}
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("%d sessions after the race, want 1", n)
	}
}

// TestRestoreBuildsOutsideServerLock: while a restore is held in the
// middle of building its session, a stats request on another session
// completes.
func TestRestoreBuildsOutsideServerLock(t *testing.T) {
	data := snapshotOf(t)
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	other := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"}).ID

	building, release := make(chan struct{}), make(chan struct{})
	defer serve.SetBuildHook(func(string) {
		close(building)
		<-release
	})()
	put := make(chan int, 1)
	go func() {
		code, err := c.status("PUT", "/v1/sessions/twin/snapshot", data)
		if err != nil {
			t.Error(err)
		}
		put <- code
	}()
	<-building
	stats := make(chan int, 1)
	go func() {
		code, err := c.status("GET", "/v1/sessions/"+other+"/stats", nil)
		if err != nil {
			t.Error(err)
		}
		stats <- code
	}()
	select {
	case code := <-stats:
		if code != http.StatusOK {
			t.Fatalf("stats during a restore: status %d", code)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a stats request waited on a restore's build")
	}
	close(release)
	if code := <-put; code != http.StatusCreated {
		t.Fatalf("held restore: status %d, want 201", code)
	}
}

// TestLargeSnapshotRestores: a snapshot over the 8 MiB event-body limit
// restores on a default server. A session that has cached a thousand
// large replies writes such a snapshot itself.
func TestLargeSnapshotRestores(t *testing.T) {
	keys := make([]string, 130)
	preds := make([][]uint64, len(keys))
	for i := range keys {
		keys[i] = "k" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + string(rune('a'+i/26))
		preds[i] = make([]uint64, 32768)
		for j := range preds[i] {
			preds[i][j] = uint64(0x80 + j%0x3f00) // two-byte uvarints
		}
	}
	extra := sessionExtraLayout(1, 256, 0, 16384, keys, preds)
	sc, m := mustScheme(t, "last(add8)1"), core.Machine{Nodes: 16, LineBytes: 64}
	data := append(eval.AppendSnapshot(nil, &eval.Snapshot{Scheme: sc, Machine: m}, len(extra), core.NewTable(sc, m)), extra...)
	if len(data) <= 8<<20 {
		t.Fatalf("snapshot is %d bytes, the test needs more than 8 MiB", len(data))
	}
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	c.restore("big", data, 2)
	if again, _ := c.snapshot("big"); !bytes.Equal(again, data) {
		t.Fatal("the restored session snapshots to different bytes")
	}
}

// TestReadRequestCapsDeclaredLength: a request that declares a 4 MiB
// body, as a connection that never sends it can, gets a buffer sized for
// 64 KiB (rounded up to the allocator's size class, under 128 KiB) until
// its bytes arrive; a longer body still reads whole.
func TestReadRequestCapsDeclaredLength(t *testing.T) {
	r := httptest.NewRequest("PUT", "/v1/sessions/x/snapshot", strings.NewReader("{}"))
	r.ContentLength = 4 << 20
	body, err := serve.ReadRequest(nil, r, serve.MaxSnapshotBytes)
	if err != nil || string(body) != "{}" {
		t.Fatalf("read %q, %v; want {}", body, err)
	}
	if cap(body) >= 128<<10 {
		t.Fatalf("a declared length of 4 MiB reserved %d bytes before any arrived", cap(body))
	}
	long := bytes.Repeat([]byte("0123456789abcdef"), 20000)
	r = httptest.NewRequest("PUT", "/v1/sessions/x/snapshot", bytes.NewReader(long))
	if body, err := serve.ReadRequest(nil, r, serve.MaxSnapshotBytes); err != nil || !bytes.Equal(body, long) {
		t.Fatalf("a %d-byte body read as %d bytes, %v", len(long), len(body), err)
	}
}

// TestCreateUnderCallerID: PUT /v1/sessions/{id} creates a session under
// the caller's id and refuses a taken one with 409, POST still mints "sN"
// and skips ids callers took, and a create, like a restore, builds its
// session outside the server lock.
func TestCreateUnderCallerID(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	req := []byte(`{"scheme":"last(dir)1","shards":1}`)

	var info serve.CreateSessionResponse
	if code := c.do("PUT", "/v1/sessions/s1", req, &info); code != http.StatusCreated || info.ID != "s1" {
		t.Fatalf("PUT create: status %d, echo %+v", code, info)
	}
	if code := c.do("PUT", "/v1/sessions/s1", req, nil); code != http.StatusConflict {
		t.Fatalf("PUT create of a taken id: status %d, want 409", code)
	}
	if code := c.do("PUT", "/v1/sessions/bad", []byte(`{"scheme":"nope"}`), nil); code != http.StatusBadRequest {
		t.Fatalf("PUT create of a bad scheme: status %d, want 400", code)
	}
	if id := c.createSession(serve.CreateSessionRequest{Scheme: "last(dir)1"}).ID; id != "s2" {
		t.Fatalf("POST after PUT s1 minted %q, want s2", id)
	}

	building, release := make(chan struct{}), make(chan struct{})
	defer serve.SetBuildHook(func(string) {
		close(building)
		<-release
	})()
	put := make(chan int, 1)
	go func() {
		code, err := c.status("PUT", "/v1/sessions/held", req)
		if err != nil {
			t.Error(err)
		}
		put <- code
	}()
	<-building
	if code, err := c.status("GET", "/v1/sessions/s1/stats", nil); err != nil || code != http.StatusOK {
		close(release)
		t.Fatalf("stats during a create: status %d, %v", code, err)
	}
	close(release)
	if code := <-put; code != http.StatusCreated {
		t.Fatalf("held create: status %d, want 201", code)
	}
	if n := srv.Sessions(); n != 3 {
		t.Fatalf("%d sessions, want 3", n)
	}
}

// TestDeleteSparesSuccessor: a DELETE removes only the session it looked
// up. While one DELETE is held after its lookup, a second client deletes
// the id and restores a new session under it; the first DELETE then
// finishes, and the successor stays registered with its state.
func TestDeleteSparesSuccessor(t *testing.T) {
	data := snapshotOf(t)
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	c.restore("x", data, 2)
	want := c.stats("x").Events

	var fired atomic.Bool
	defer serve.SetDeleteHook(func(string) {
		if fired.Swap(true) {
			return
		}
		if _, err := c.status("DELETE", "/v1/sessions/x", nil); err != nil {
			t.Error(err)
		}
		if code, err := c.status("PUT", "/v1/sessions/x/snapshot", data); err != nil || code != http.StatusCreated {
			t.Errorf("successor restore: status %d, %v", code, err)
		}
	})()
	if code, err := c.status("DELETE", "/v1/sessions/x", nil); err != nil || code != http.StatusOK {
		t.Fatalf("delete: status %d, %v", code, err)
	}
	if !fired.Load() {
		t.Fatal("the delete hook never ran")
	}
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("%d sessions after the delete, want the successor", n)
	}
	if got := c.stats("x").Events; got != want {
		t.Fatalf("successor has %d events, want the snapshot's %d", got, want)
	}
}
