package serve_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// A restored session is dormant until its first use: a snapshot PUT
// checks the snapshot whole and keeps its bytes, and the first events,
// stats or snapshot request builds the session from them. These tests
// pin that the PUT builds nothing, that the build happens once whatever
// races it, that a delete never leaves a built session behind, and that
// the PUT refuses exactly what the eager restore refuses.

// dormancy reads the dormant-session gauges and the wake counter.
func dormancy(reg *obs.Registry) (sessions, size float64, wakes int64) {
	s := reg.Snapshot()
	return s.Gauges["serve_sessions_dormant"], s.Gauges["serve_dormant_bytes"], s.Counters["serve_session_wakes_total"]
}

// TestDormantRestore: a snapshot PUT answers with the config an eager
// restore has, lists it, and builds no table; /metrics counts the copy
// and its bytes. The first stats GET builds it, once: its stats and
// its snapshot then equal the eager restore's. A DELETE, and a Shutdown,
// drop a dormant copy without building it; the DELETE logs the copy's
// restored event count.
func TestDormantRestore(t *testing.T) {
	data := snapshotOf(t)
	snap, err := eval.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	three := 3
	eager, err := serve.NewSessionFromSnapshot("d", snap, &three, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	reg := obs.New()
	var logMu sync.Mutex
	var logged []string
	log := obs.NewLogger(obs.Info, func(format string, args ...interface{}) {
		logMu.Lock()
		defer logMu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	srv := serve.NewServer(serve.Options{Registry: reg, Log: log})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	var info serve.CreateSessionResponse
	if code := c.do("PUT", "/v1/sessions/d/snapshot?shards=3", data, &info); code != http.StatusCreated {
		t.Fatalf("restore: status %d", code)
	}
	cfg := eager.Config()
	if want := (serve.CreateSessionResponse{ID: "d", Scheme: cfg.Scheme.FullString(), Nodes: cfg.Machine.Nodes,
		LineBytes: cfg.Machine.LineBytes, Shards: 1, BatchSize: cfg.BatchSize, MaxPending: cfg.MaxPending}); info != want {
		t.Fatalf("restore echo %+v, want %+v", info, want)
	}
	var list serve.SessionListResponse
	if c.do("GET", "/v1/sessions", nil, &list); len(list.Sessions) != 1 || list.Sessions[0] != info {
		t.Fatalf("list %+v, want the restore's echo %+v", list.Sessions, info)
	}
	if n, size, wakes := dormancy(reg); n != 1 || size != float64(len(data)) || wakes != 0 {
		t.Fatalf("dormant %v sessions of %v bytes, %d wakes; want 1 of %d, 0", n, size, wakes, len(data))
	}

	st := c.stats("d")
	want := eager.Stats()
	if st.Events != want.Events || st.TP != want.Confusion.TP || st.FP != want.Confusion.FP ||
		st.TN != want.Confusion.TN || st.FN != want.Confusion.FN || st.TableEntries != want.TableEntries ||
		st.IdempotencyKeys != want.IdemKeys || st.IdempotencyReplyBytes != want.IdemReplyBytes {
		t.Fatalf("woken stats %+v, the eager restore's %+v", st, want)
	}
	c.stats("d")
	if n, size, wakes := dormancy(reg); n != 0 || size != 0 || wakes != 1 {
		t.Fatalf("after two stats: dormant %v sessions of %v bytes, %d wakes; want 0, 0, 1", n, size, wakes)
	}
	wantSnap, err := eager.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.snapshot("d"); !bytes.Equal(got, wantSnap) {
		t.Fatal("the woken session snapshots to other bytes than the eager restore")
	}

	c.restore("gone", data, 2)
	if code := c.do("DELETE", "/v1/sessions/gone", nil, nil); code != http.StatusOK {
		t.Fatalf("delete of a dormant session: status %d", code)
	}
	wantLine := fmt.Sprintf("serve: session gone drained and removed (%d events)", snap.Events)
	logMu.Lock()
	found := slices.Contains(logged, wantLine)
	logMu.Unlock()
	if snap.Events == 0 || !found {
		t.Fatalf("the DELETE of a dormant session of %d events logged %q, want a line %q", snap.Events, logged, wantLine)
	}
	c.restore("left", data, 2)
	if n, size, _ := dormancy(reg); n != 1 || size != float64(len(data)) {
		t.Fatalf("dormant %v sessions of %v bytes, want the one left", n, size)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n, size, wakes := dormancy(reg); n != 0 || size != 0 || wakes != 1 {
		t.Fatalf("after the shutdown: dormant %v sessions of %v bytes, %d wakes; want 0, 0, 1", n, size, wakes)
	}
}

// TestConcurrentWakeBuildsOnce: first uses racing on a dormant session —
// posts of one batch under one key over both encodings, and stats GETs —
// build it once: one wake, one training of the batch, and every post gets
// the predictions an eager restore of the same snapshot makes for it.
func TestConcurrentWakeBuildsOnce(t *testing.T) {
	data := snapshotOf(t)
	snap, err := eval.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	evs := sharingEvents(256)
	eager, err := serve.NewSessionFromSnapshot("e", snap, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	frame, err := eager.PostFrame("race", evs, new(serve.WireBuf))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.DecodeWireReplyInto(frame, []uint64(nil))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	srv := serve.NewServer(serve.Options{Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	c.restore("d", data, 2)

	const racers = 9
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if g%3 == 2 {
				if code, err := c.status("GET", "/v1/sessions/d/stats", nil); err != nil || code != http.StatusOK {
					t.Errorf("racing stats: status %d, %v", code, err)
				}
				return
			}
			preds, err := c.tryPostPreds("d", "race", evs, g%3 == 1)
			if err != nil {
				t.Error(err)
			} else if !slices.Equal(preds, want) {
				t.Errorf("racer %d got other predictions than the eager restore", g)
			}
		}()
	}
	close(start)
	wg.Wait()
	if _, _, wakes := dormancy(reg); wakes != 1 {
		t.Fatalf("%d wakes, want 1", wakes)
	}
	if got, want := c.stats("d").Events, eager.Stats().Events; got != want {
		t.Fatalf("%d events after the race, the eager restore has %d", got, want)
	}
}

// TestDeleteRacingWake: a DELETE that lands between a request's lookup
// of a dormant session and its wake leaves the request a 503 and builds
// nothing; deletes racing first uses of fresh copies, whichever wins,
// leave no session and no dormant bytes behind.
func TestDeleteRacingWake(t *testing.T) {
	data := snapshotOf(t)
	reg := obs.New()
	srv := serve.NewServer(serve.Options{Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	c.restore("x", data, 2)
	var fired atomic.Bool
	unhook := serve.SetWakeHook(func(string) {
		if fired.Swap(true) {
			return
		}
		if code, err := c.status("DELETE", "/v1/sessions/x", nil); err != nil || code != http.StatusOK {
			t.Errorf("delete between lookup and wake: status %d, %v", code, err)
		}
	})
	code, err := c.status("GET", "/v1/sessions/x/stats", nil)
	unhook()
	if err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("stats of a session deleted before its wake: status %d, %v; want 503", code, err)
	}
	if _, _, wakes := dormancy(reg); wakes != 0 {
		t.Fatalf("%d wakes: a session deleted before its wake was built", wakes)
	}

	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("r%d", i)
		c.restore(id, data, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if code, err := c.status("DELETE", "/v1/sessions/"+id, nil); err != nil || code != http.StatusOK {
				t.Errorf("delete %s: status %d, %v", id, code, err)
			}
		}()
		go func() {
			defer wg.Done()
			code, err := c.status("GET", "/v1/sessions/"+id+"/stats", nil)
			if err != nil || (code != http.StatusOK && code != http.StatusNotFound && code != http.StatusServiceUnavailable) {
				t.Errorf("stats racing the delete of %s: status %d, %v", id, code, err)
			}
		}()
		wg.Wait()
	}
	if n, size, _ := dormancy(reg); n != 0 || size != 0 || srv.Sessions() != 0 {
		t.Fatalf("after the deletes: %d sessions, dormant %v of %v bytes; want none", srv.Sessions(), n, size)
	}
}

// restoreSeedSections are the FuzzImportEntries seeds as snapshot bytes:
// for each of its schemes, the entries of a table trained as it trains
// one, whole, a byte short and a byte long, then its two handcrafted
// sections. Each section follows an empty header of its scheme on the
// sixteen-node machine, and an empty Extra section follows it.
func restoreSeedSections(tb testing.TB) [][]byte {
	m := core.Machine{Nodes: 16, LineBytes: 64}
	schemes := []string{
		"last(dir+add8)1", "union(dir+add8)3", "inter(dir+add8)2", "pas(dir+add8)2",
		"sticky(add8)1", "pas(dir+add8)3", "pas(dir+add8)4",
	}
	wrap := func(sc core.Scheme, sec []byte) []byte {
		empty := eval.AppendSnapshot(nil, &eval.Snapshot{Scheme: sc, Machine: m}, 0, core.NewTable(sc, m))
		b := append(empty[:len(empty)-2:len(empty)-2], sec...) // drop the count and the Extra length
		return append(b, 0)
	}
	var out [][]byte
	for i, s := range schemes {
		sc := mustScheme(tb, s)
		tab := core.NewTable(sc, m)
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 300; j++ {
			key := uint64(rng.Intn(64))
			tab.Train(key, bitmap.Bitmap(rng.Uint64())&bitmap.Full(m.Nodes))
			tab.Predict(key)
		}
		sec := core.AppendEntries(nil, tab)
		out = append(out, wrap(sc, sec), wrap(sc, sec[:len(sec)-1]), wrap(sc, append(sec, 0)))
	}
	out = append(out, wrap(mustScheme(tb, schemes[0]), []byte{2, 5, 2, 1, 3, 0, 2, 1, 3}))
	out = append(out, wrap(mustScheme(tb, schemes[4]), []byte{1, 1, 18, 0x81, 0x00, 1}))
	return out
}

// FuzzDormantRestore is the differential check of the dormant restore:
// Server.RestoreSnapshot, behind the snapshot PUT, accepts a snapshot
// exactly when the eager restore (NewSessionFromSnapshot) accepts it at
// the same shard override, refusing it with the same error, and an
// accepted copy, once woken, snapshots to the bytes the eager one does.
// Seeded from the twelve golden snapshots, the FuzzDecodeSnapshot corpus
// and the FuzzImportEntries seeds.
func FuzzDormantRestore(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "snapshots", "*.cohsnap"))
	if err != nil || len(golden) != 12 {
		f.Fatalf("%d golden snapshots (%v), want 12", len(golden), err)
	}
	for i, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(i%4)) // the snapshot's own shard count, then 1, 2 and 3
	}
	seeds, err := filepath.Glob(filepath.Join("..", "eval", "testdata", "fuzz", "FuzzDecodeSnapshot", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		f.Add(readFuzzSeed(f, path), uint8(0))
	}
	for _, data := range restoreSeedSections(f) {
		f.Add(data, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		var override *int
		if shards != 0 {
			n := int(shards%80) - 1 // -1 and past 64 are refused
			override = &n
		}
		srv := serve.NewServer(serve.Options{})
		defer srv.Shutdown()
		_, err := srv.RestoreSnapshot("d", data, override)
		snap, derr := eval.DecodeSnapshot(data)
		if derr != nil {
			if err == nil || err.Error() != derr.Error() {
				t.Fatalf("dormant restore of an undecodable snapshot: %v, want %v", err, derr)
			}
			return
		}
		eager, eerr := serve.NewSessionFromSnapshot("d", snap, override, nil, nil, nil)
		if (err == nil) != (eerr == nil) || (err != nil && err.Error() != eerr.Error()) {
			t.Fatalf("dormant restore: %v; eager restore: %v", err, eerr)
		}
		if eerr != nil {
			return
		}
		defer eager.Close()
		want, err := eager.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/d/snapshot", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("the woken copy snapshots to status %d, %d bytes; the eager restore to %d bytes", rec.Code, rec.Body.Len(), len(want))
		}
	})
}
