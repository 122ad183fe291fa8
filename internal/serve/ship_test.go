package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"cohpredict/internal/machine"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// A ship is a session's snapshot GET on its home, then a PUT of the
// bytes on the standby. BenchmarkShip times both for cluster-small's four
// session shapes; TestShipAllocsConstant pins what they allocate.

// sinkWriter is an http.ResponseWriter that keeps the status and the body
// in a buffer it reuses, so a handler is timed without a recorder's
// copies.
type sinkWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *sinkWriter) Header() http.Header         { return w.hdr }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }
func (w *sinkWriter) Write(p []byte) (int, error) { w.body = append(w.body, p...); return len(p), nil }

// serveSink runs one request through h and returns its status and body,
// which stays valid until the writer's next use.
func serveSink(h http.Handler, w *sinkWriter, method, path string, body []byte, hdr map[string]string) (int, []byte) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	clear(w.hdr)
	w.status, w.body = http.StatusOK, w.body[:0]
	h.ServeHTTP(w, r)
	return w.status, w.body
}

// shipShapes are cluster-small's sessions: a benchmark whose trace they
// replay and the scheme they predict it with.
var shipShapes = []struct{ bench, scheme string }{
	{"em3d", "union(pid+dir+add10)2[forwarded]"},
	{"mp3d", "pas(pid+add6)2"},
	{"barnes", "sticky(dir+add8)1"},
	{"ocean", "inter(pid+pc8)2[forwarded]"},
}

// defaultTrace simulates a benchmark at default scale with seed 1.
func defaultTrace(tb testing.TB, bench string) []trace.Event {
	tb.Helper()
	mach := machine.New(machine.DefaultConfig())
	b, err := workload.ByName(bench, workload.ScaleDefault)
	if err != nil {
		tb.Fatal(err)
	}
	b.Run(mach, 16, 1)
	return mach.Finish().Events
}

// postKeyedBatches creates a two-shard session of scheme on h and posts
// it n keyed 64-event COHWIRE1 batches, taken from evs in order and
// wrapping around, as cluster-small's sessions receive them. It returns
// the session id.
func postKeyedBatches(tb testing.TB, h http.Handler, scheme string, evs []trace.Event, n int) string {
	tb.Helper()
	w := &sinkWriter{hdr: http.Header{}}
	body := fmt.Sprintf(`{"scheme":%q,"shards":2}`, scheme)
	code, reply := serveSink(h, w, "POST", "/v1/sessions", []byte(body), nil)
	if code != http.StatusCreated {
		tb.Fatalf("create %s: status %d: %s", scheme, code, reply)
	}
	var id string
	if _, err := fmt.Sscanf(string(reply), `{"id":%q`, &id); err != nil {
		tb.Fatalf("create %s: %s: %v", scheme, reply, err)
	}
	batch := make([]trace.Event, 64)
	for i := 0; i < n; i++ {
		for j := range batch {
			batch[j] = evs[(i*64+j)%len(evs)]
		}
		hdr := map[string]string{"Content-Type": serve.ContentTypeWire, "Idempotency-Key": fmt.Sprintf("k%d", i)}
		if code, reply := serveSink(h, w, "POST", "/v1/sessions/"+id+"/events", serve.AppendWireBatch(nil, batch), hdr); code != http.StatusOK {
			tb.Fatalf("post %d to %s: status %d: %s", i, scheme, code, reply)
		}
	}
	return id
}

// ship runs one ship of session id from home to standby: the GET, then
// the PUT. It returns the snapshot's size.
func ship(tb testing.TB, home, standby http.Handler, get, put *sinkWriter, id string) int {
	code, snap := serveSink(home, get, "GET", "/v1/sessions/"+id+"/snapshot", nil, nil)
	if code != http.StatusOK {
		tb.Fatalf("snapshot %s: status %d: %s", id, code, snap)
	}
	if code, reply := serveSink(standby, put, "PUT", "/v1/sessions/"+id+"/snapshot", snap, nil); code != http.StatusCreated {
		tb.Fatalf("restore %s: status %d: %s", id, code, reply)
	}
	return len(snap)
}

// unship deletes the standby's copy, as the next ship's DELETE does.
func unship(tb testing.TB, standby http.Handler, w *sinkWriter, id string) {
	if code, reply := serveSink(standby, w, "DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusOK {
		tb.Fatalf("delete %s: status %d: %s", id, code, reply)
	}
}

// BenchmarkShip times one ship of each of cluster-small's four session
// shapes after 416 keyed 64-event posts on two shards: the snapshot GET
// on the home backend, then the PUT that restores it on the standby. The
// standby's DELETE of the copy between rounds is not timed. Run it with
// -benchmem; the snapshot-bytes metric is the four snapshots' total.
func BenchmarkShip(b *testing.B) {
	home, standby := serve.NewServer(serve.Options{}), serve.NewServer(serve.Options{})
	defer home.Shutdown()
	defer standby.Shutdown()
	hh, sh := home.Handler(), standby.Handler()
	ids := make([]string, len(shipShapes))
	for i, s := range shipShapes {
		ids[i] = postKeyedBatches(b, hh, s.scheme, defaultTrace(b, s.bench), 416)
	}
	get, put, del := &sinkWriter{hdr: http.Header{}}, &sinkWriter{hdr: http.Header{}}, &sinkWriter{hdr: http.Header{}}
	bytes := 0
	for _, id := range ids { // warm the buffers; measure the snapshots
		bytes += ship(b, hh, sh, get, put, id)
		unship(b, sh, del, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			ship(b, hh, sh, get, put, id)
		}
		b.StopTimer()
		for _, id := range ids {
			unship(b, sh, del, id)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(bytes), "snapshot-bytes")
}

// TestShipAllocsConstant pins what a ship allocates: a snapshot GET takes
// a constant number of allocations, and so does a restore, whether the
// session holds 32 cached replies and about a thousand entries or 400
// cached replies and thirteen thousand. The collector is off while it
// counts: a collection empties the pools the handlers draw from, and
// refilling them would be counted against whichever request met it.
func TestShipAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts on purpose")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	home, standby := serve.NewServer(serve.Options{}), serve.NewServer(serve.Options{})
	defer home.Shutdown()
	defer standby.Shutdown()
	hh, sh := home.Handler(), standby.Handler()
	get, put, del := &sinkWriter{hdr: http.Header{}}, &sinkWriter{hdr: http.Header{}}, &sinkWriter{hdr: http.Header{}}
	evs := goldenEvents(rand.New(rand.NewSource(3)), 400*64)
	type cost struct{ entries, getAllocs, putAllocs float64 }
	var costs []cost
	for _, posts := range []int{32, 400} {
		id := postKeyedBatches(t, hh, "union(pid+dir+add10)2[forwarded]", evs, posts)
		ship(t, hh, sh, get, put, id) // warm the buffers and the pools
		unship(t, sh, del, id)
		getAllocs := testing.AllocsPerRun(20, func() {
			serveSink(hh, get, "GET", "/v1/sessions/"+id+"/snapshot", nil, nil)
		})
		snap := append([]byte(nil), get.body...)
		putAllocs := testing.AllocsPerRun(20, func() {
			if code, reply := serveSink(sh, put, "PUT", "/v1/sessions/"+id+"/snapshot", snap, nil); code != http.StatusCreated {
				t.Fatalf("restore: status %d: %s", code, reply)
			}
			unship(t, sh, del, id)
		})
		var st serve.StatsResponse
		w := &sinkWriter{hdr: http.Header{}}
		_, body := serveSink(hh, w, "GET", "/v1/sessions/"+id+"/stats", nil, nil)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		costs = append(costs, cost{float64(st.TableEntries), getAllocs, putAllocs})
		t.Logf("%d posts, %d entries, %d-byte snapshot: GET %v allocs, PUT+DELETE %v allocs",
			posts, st.TableEntries, len(snap), getAllocs, putAllocs)
	}
	small, large := costs[0], costs[1]
	if large.entries < 4*small.entries {
		t.Fatalf("the sessions hold %v and %v entries: the pin needs a wide spread", small.entries, large.entries)
	}
	if small.getAllocs != large.getAllocs {
		t.Errorf("a GET allocates %v times at %v entries and %v at %v", small.getAllocs, small.entries, large.getAllocs, large.entries)
	}
	if small.putAllocs != large.putAllocs {
		t.Errorf("a restore allocates %v times at %v entries and %v at %v", small.putAllocs, small.entries, large.putAllocs, large.entries)
	}
}
