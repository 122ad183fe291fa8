package traffic

import (
	"bytes"
	"testing"

	"cohpredict/internal/trace"
)

// fakeClock is a deterministic recorder clock.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { c.t += 1000; return c.t }

func TestRecorderBuildsCanonicalTrace(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorderClock(clk.now)
	evs := []trace.Event{{PID: 1, PC: 7, Dir: 2, Addr: 64, FutureReaders: 8}}

	r.RecordSession("s1", "union(dir+add8)2", 16, 64, 2)
	r.RecordEvents("s1", "req-1", evs)
	r.RecordSession("s2", "last()1", 4, 32, 1)
	r.RecordEvents("s2", "req-2", evs)
	r.RecordEvents("s1", "req-3", evs)

	recs, err := DecodeTraceFile(r.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || r.Records() != 5 {
		t.Fatalf("recorded %d records (Records()=%d), want 5", len(recs), r.Records())
	}
	if recs[0].Session.Seq != 0 || recs[2].Session.Seq != 1 {
		t.Fatalf("session seqs %d,%d want 0,1", recs[0].Session.Seq, recs[2].Session.Seq)
	}
	if recs[1].Request.Session != 0 || recs[3].Request.Session != 1 || recs[4].Request.Session != 0 {
		t.Fatal("request records name the wrong sessions")
	}
	if recs[4].Request.ID != "req-3" {
		t.Fatalf("request ID %q, want req-3", recs[4].Request.ID)
	}
	// Arrivals are offsets from the first record and never decrease.
	if recs[1].Request.ArrivalNS >= recs[3].Request.ArrivalNS ||
		recs[3].Request.ArrivalNS >= recs[4].Request.ArrivalNS {
		t.Fatal("arrival offsets not increasing under a monotone clock")
	}
	// Two recorders over the same clock sequence produce identical bytes.
	clk2 := &fakeClock{}
	r2 := NewRecorderClock(clk2.now)
	r2.RecordSession("s1", "union(dir+add8)2", 16, 64, 2)
	r2.RecordEvents("s1", "req-1", evs)
	r2.RecordSession("s2", "last()1", 4, 32, 1)
	r2.RecordEvents("s2", "req-2", evs)
	r2.RecordEvents("s1", "req-3", evs)
	if !bytes.Equal(r.Bytes(), r2.Bytes()) {
		t.Fatal("equal inputs produced different trace bytes")
	}
}

func TestRecorderSkipsUnknownSessionsAndEmptyBatches(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorderClock(clk.now)
	evs := []trace.Event{{PID: 0, PC: 1, FutureReaders: 1}}
	r.RecordEvents("ghost", "req-1", evs) // session predates the recorder
	r.RecordSession("s1", "last()1", 4, 64, 1)
	r.RecordEvents("s1", "", nil) // empty batch
	if r.Records() != 1 || r.Skipped() != 1 {
		t.Fatalf("records=%d skipped=%d, want 1 and 1", r.Records(), r.Skipped())
	}
	if _, err := DecodeTraceFile(r.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.RecordSession("s1", "last()1", 4, 64, 1)
	r.RecordEvents("s1", "req", []trace.Event{{FutureReaders: 1}})
	if r.Records() != 0 || r.Skipped() != 0 {
		t.Fatal("nil recorder reports records")
	}
	if recs, err := DecodeTraceFile(r.Bytes()); err != nil || len(recs) != 0 {
		t.Fatalf("nil recorder bytes: %d records, %v", len(recs), err)
	}
}

// TestRecorderAppendAllocFree pins the recording hot path: once the
// buffer has warmed up, RecordEvents performs zero allocations — the
// wire serve path's allocation-free property survives with recording on.
func TestRecorderAppendAllocFree(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorderClock(clk.now)
	r.RecordSession("s1", "union(dir+add8)2", 16, 64, 2)
	evs := make([]trace.Event, 256)
	for i := range evs {
		evs[i] = trace.Event{PID: uint8(i % 16), PC: uint64(i), Dir: uint8((i + 1) % 16), Addr: uint64(i * 64), FutureReaders: 1}
	}
	// Warm-up: let the buffer reach steady-state capacity.
	for i := 0; i < 64; i++ {
		r.RecordEvents("s1", "warmup-request-id", evs)
	}
	warmLen := len(r.buf)
	allocs := testing.AllocsPerRun(100, func() {
		r.mu.Lock()
		r.buf = r.buf[:warmLen] // reuse warmed capacity, as a long run would
		r.mu.Unlock()
		r.RecordEvents("s1", "steady-state-req-id", evs)
	})
	if allocs != 0 {
		t.Fatalf("RecordEvents allocates %.1f times per batch at steady state, want 0", allocs)
	}
}
