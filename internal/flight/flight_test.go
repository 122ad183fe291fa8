package flight

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/obs"
)

func TestNanosMonotonic(t *testing.T) {
	a := Nanos()
	b := Nanos()
	if a < 0 || b < a {
		t.Fatalf("Nanos not monotonic: %d then %d", a, b)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	r := rec.Begin(RouteEvents, TransportJSON)
	if r != nil {
		t.Fatalf("nil recorder Begin = %v, want nil", r)
	}
	// Every Record method must tolerate nil.
	r.SetID("x")
	r.SetSession("s")
	r.SetEvents(1)
	r.SetBytesIn(2)
	r.SetBytesOut(3)
	r.AddDecode(4)
	r.AddEncode(5)
	r.SetEnqueue(6)
	r.MarkReplay()
	r.MarkFault(FaultDrop)
	r.NoteExec(2, 3)
	if r.ID() != "" {
		t.Fatalf("nil record ID = %q, want empty", r.ID())
	}
	rec.Finish(r, 200)
	c := rec.Capture(KindRequests)
	if len(c.Requests) != 0 || c.Requests == nil || c.Seen != 0 {
		t.Fatalf("nil recorder capture = %+v, want empty non-nil slice and nothing seen", c)
	}
	// Finish on a live recorder with a nil record is also a no-op.
	live := New(Options{})
	live.Finish(nil, 200)
	if n := live.seq.Load(); n != 0 {
		t.Fatalf("Finish(nil) counted: seen %d", n)
	}
}

func TestDefaults(t *testing.T) {
	rec := New(Options{})
	if rec.sample != DefaultSample {
		t.Fatalf("sample = %d, want %d", rec.sample, DefaultSample)
	}
	if rec.slowNS != int64(DefaultSlowThreshold) {
		t.Fatalf("slowNS = %d, want %d", rec.slowNS, int64(DefaultSlowThreshold))
	}
	if len(rec.ring.slots) != DefaultRingSize || len(rec.slow.slots) != DefaultSlowSize {
		t.Fatalf("ring sizes = %d/%d, want %d/%d",
			len(rec.ring.slots), len(rec.slow.slots), DefaultRingSize, DefaultSlowSize)
	}
}

func TestLifecycleAndCapture(t *testing.T) {
	reg := obs.New()
	rec := New(Options{Registry: reg, Sample: 1, SlowThreshold: time.Hour})
	r := rec.Begin(RouteEvents, TransportWire)
	if r == nil {
		t.Fatal("Begin returned nil on live recorder")
	}
	r.SetID("req-1")
	r.SetSession("sess-9")
	r.SetEvents(128)
	r.SetBytesIn(4096)
	r.SetBytesOut(512)
	r.AddDecode(1000)
	r.AddDecode(500)
	r.AddEncode(2000)
	r.SetEnqueue(r.start + 10)
	r.NoteExec(r.start+100, 60)
	rec.Finish(r, 200)

	if n := rec.seq.Load(); n != 1 {
		t.Fatalf("seen %d, want 1", n)
	}
	c := rec.Capture(KindRequests)
	if c.Kind != KindRequests || c.Sample != 1 || c.Seen != 1 {
		t.Fatalf("capture header = %+v", c)
	}
	if len(c.Requests) != 1 {
		t.Fatalf("captured %d requests, want 1", len(c.Requests))
	}
	e := c.Requests[0]
	if e.ID != "req-1" || e.Session != "sess-9" || e.Route != RouteEvents ||
		e.Transport != TransportWire || e.Status != 200 || e.Events != 128 ||
		e.BytesIn != 4096 || e.BytesOut != 512 || e.Batches != 1 ||
		e.DecodeNS != 1500 || e.EncodeNS != 2000 || e.BatchNS != 0 || e.ExecNS != 60 {
		t.Fatalf("entry = %+v", e)
	}
	if e.QueueNS != 90 { // execAt(start+100) - enqueue(start+10)
		t.Fatalf("queue_ns = %d, want 90", e.QueueNS)
	}
	if e.TotalNS <= 0 {
		t.Fatalf("total_ns = %d, want > 0", e.TotalNS)
	}
	if e.Replay || len(e.Faults) != 0 {
		t.Fatalf("unexpected replay/faults in %+v", e)
	}
	// Histograms observed once each.
	snap := reg.Snapshot()
	for _, name := range []string{
		"serve_request_seconds_events_wire",
		"serve_queue_wait_seconds_events_wire",
		"serve_shard_exec_seconds_events_wire",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 1 {
			t.Fatalf("histogram %s: ok=%v count=%d, want 1 observation", name, ok, h.Count)
		}
	}
	// Destructive read: second capture is empty.
	if c2 := rec.Capture(KindRequests); len(c2.Requests) != 0 {
		t.Fatalf("second capture returned %d requests, want 0", len(c2.Requests))
	}
}

func TestSamplingStride(t *testing.T) {
	rec := New(Options{Sample: 4, SlowThreshold: time.Hour})
	for i := 0; i < 8; i++ {
		rec.Finish(rec.Begin(RouteEvents, TransportJSON), 200)
	}
	c := rec.Capture(KindRequests)
	if len(c.Requests) != 2 {
		t.Fatalf("sample=4 over 8 requests captured %d, want 2", len(c.Requests))
	}
	for _, e := range c.Requests {
		if e.Seq%4 != 0 {
			t.Fatalf("sampled seq %d not on stride 4", e.Seq)
		}
	}
	if s := rec.Capture(KindSlow); len(s.Requests) != 0 {
		t.Fatalf("slow ring has %d entries, want 0", len(s.Requests))
	}
}

func TestSlowPromotion(t *testing.T) {
	cases := []struct {
		name   string
		status int
		stamp  func(r *Record)
		faults []string
	}{
		{"error-status", 500, func(r *Record) {}, nil},
		{"fault-bit", 200, func(r *Record) { r.MarkFault(FaultDelay) }, []string{"delay"}},
		{"over-threshold", 200, func(r *Record) { r.start -= int64(time.Hour) }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Sample huge: nothing reaches the main ring by sampling, so
			// anything captured got there by promotion.
			rec := New(Options{Sample: 1 << 30, SlowThreshold: time.Hour})
			r := rec.Begin(RouteEvents, TransportJSON)
			tc.stamp(r)
			rec.Finish(r, tc.status)
			slow := rec.Capture(KindSlow)
			if len(slow.Requests) != 1 {
				t.Fatalf("slow ring has %d entries, want 1", len(slow.Requests))
			}
			if got := slow.Requests[0].Faults; !reflect.DeepEqual(got, tc.faults) {
				t.Fatalf("faults = %v, want %v", got, tc.faults)
			}
			if main := rec.Capture(KindRequests); len(main.Requests) != 0 {
				t.Fatalf("promoted request also hit main ring (%d entries)", len(main.Requests))
			}
		})
	}
}

func TestReplayFlagSurvivesCapture(t *testing.T) {
	rec := New(Options{Sample: 1, SlowThreshold: time.Hour})
	r := rec.Begin(RouteEvents, TransportJSON)
	r.MarkReplay()
	rec.Finish(r, 200)
	c := rec.Capture(KindRequests)
	if len(c.Requests) != 1 || !c.Requests[0].Replay {
		t.Fatalf("capture = %+v, want one replay entry", c.Requests)
	}
}

func TestNoteExec(t *testing.T) {
	rec := New(Options{Sample: 1, SlowThreshold: time.Hour})
	r := rec.Begin(RouteEvents, TransportWire)
	r.SetEnqueue(400)
	r.NoteExec(500, 70)
	if r.batches != 1 || r.execAt != 500 || r.execNS != 70 {
		t.Fatalf("batches/execAt/execNS = %d/%d/%d, want 1/500/70", r.batches, r.execAt, r.execNS)
	}
	rec.Finish(r, 200)
	c := rec.Capture(KindRequests)
	if len(c.Requests) != 1 {
		t.Fatalf("captured %d requests, want 1", len(c.Requests))
	}
	// queue_wait runs from admission to the lock; nothing waits to join a
	// batch any more.
	if e := c.Requests[0]; e.QueueNS != 100 || e.ExecNS != 70 || e.BatchNS != 0 || e.Batches != 1 {
		t.Fatalf("entry = %+v, want queue 100, exec 70, batch 0, one batch", e)
	}
}

func TestMarkFaultAccumulates(t *testing.T) {
	r := new(Record)
	r.MarkFault(FaultDrop)
	r.MarkFault(FaultReset)
	r.MarkFault(FaultDrop) // idempotent re-mark
	if got := r.fault; got != FaultDrop|FaultReset {
		t.Fatalf("fault bits = %#x, want %#x", got, FaultDrop|FaultReset)
	}
}

func TestFaultNames(t *testing.T) {
	if got := faultNames(0); got != nil {
		t.Fatalf("faultNames(0) = %v, want nil", got)
	}
	all := FaultDrop | FaultDelay | FaultError | FaultReset
	want := []string{"drop", "delay", "error", "reset"}
	if got := faultNames(all); !reflect.DeepEqual(got, want) {
		t.Fatalf("faultNames(all) = %v, want %v", got, want)
	}
}

func TestRingDisplacement(t *testing.T) {
	rec := New(Options{Sample: 1, SlowThreshold: time.Hour, Ring: 2, Slow: 2})
	for i := 0; i < 5; i++ {
		rec.Finish(rec.Begin(RouteEvents, TransportJSON), 200)
	}
	c := rec.Capture(KindRequests)
	if len(c.Requests) != 2 {
		t.Fatalf("ring of 2 after 5 finishes holds %d, want 2", len(c.Requests))
	}
	// Oldest-first ordering of the survivors (the last two finished).
	if c.Requests[0].Seq != 4 || c.Requests[1].Seq != 5 {
		t.Fatalf("captured seqs %d,%d; want 4,5", c.Requests[0].Seq, c.Requests[1].Seq)
	}
}

func TestCaptureJSONShape(t *testing.T) {
	rec := New(Options{Sample: 1, SlowThreshold: time.Hour})
	r := rec.Begin(RouteEvents, TransportJSON)
	r.SetID("abc")
	rec.Finish(r, 200)
	b, err := json.Marshal(rec.Capture(KindRequests))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"kind", "sample", "slow_threshold_ns", "requests_seen", "requests"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("capture JSON missing %q: %s", key, b)
		}
	}
}

func TestRecordReuseIsClean(t *testing.T) {
	rec := New(Options{Sample: 1, SlowThreshold: time.Hour, Ring: 1})
	r := rec.Begin(RouteEvents, TransportWire)
	r.SetID("dirty")
	r.SetEvents(99)
	r.MarkFault(FaultDrop)
	r.MarkReplay()
	rec.Finish(r, 503) // → slow ring
	rec.Capture(KindSlow)

	// The pooled record must come back blank.
	r2 := rec.Begin(RouteEvents, TransportJSON)
	if r2.ID() != "" || r2.events != 0 || r2.fault != 0 || r2.replay {
		t.Fatalf("reused record not reset: %+v", r2)
	}
	rec.Finish(r2, 200)
}

func TestHistSetLazyResolution(t *testing.T) {
	reg := obs.New()
	rec := New(Options{Registry: reg, Sample: 1, SlowThreshold: time.Hour})
	r := rec.Begin("snapshot", TransportJSON) // unknown family: resolved lazily
	rec.Finish(r, 200)
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["serve_request_seconds_snapshot_json"]; !ok || h.Count != 1 {
		t.Fatalf("lazy family not observed: ok=%v", ok)
	}
}

func TestConcurrentStampingAndCapture(t *testing.T) {
	rec := New(Options{Sample: 2, SlowThreshold: time.Hour, Ring: 8, Slow: 8})
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := rec.Begin(RouteEvents, TransportWire)
				r.SetEvents(1)
				r.SetEnqueue(Nanos())
				r.NoteExec(Nanos(), 1)
				r.MarkFault(FaultDelay)
				rec.Finish(r, 200)
			}
		}(w)
	}
	// A concurrent capturer drains while writers publish.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			rec.Capture(KindRequests)
			rec.Capture(KindSlow)
		}
	}()
	wg.Wait()
	<-done
	if got := rec.seq.Load(); got != workers*perWorker {
		t.Fatalf("seen %d, want %d", got, workers*perWorker)
	}
}
