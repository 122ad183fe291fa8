// Package flight is the serve path's flight recorder: an always-on,
// sampled, per-request trace capture with per-stage latency accounting.
// The aggregate serve_* counters say *how much* the service did; this
// package answers "why was THIS request slow, and which injected fault
// hit it?" — the per-instance discipline a multi-node router needs before
// it can make health and rebalancing decisions.
//
// Every event post carries a Record, stored in the request's pooled
// buffer and stamped through its life:
//
//	decode → queue-wait → execute → encode
//
// Only the request's own goroutine stamps its record. The handler stamps
// decode/encode and the request identity (client X-Request-ID,
// transport, byte sizes); the session stamps the admission instant, and
// the kernel run under the session's table lock through two hot-path
// kernels (NoteExec, MarkFault) that cost a few plain stores per post —
// never per event — and allocate nothing.
//
// At Finish the record is promoted tail-based: requests that erred, were
// hit by an injected fault, or ran slower than the threshold always land
// in the bounded slow-log; of the rest, one in Sample lands in the main
// ring. Promotion copies the record into the ring under the recorder's
// one mutex, so the request's buffer is free for its next use the moment
// Finish returns. Each ring grows to its size and then overwrites its
// oldest entry.
//
// Captures read DESTRUCTIVELY: GET /v1/debug/requests (or /slow) drains
// the ring it reads, so two consecutive captures never report the same
// request twice, and entries are ordered by a global finish sequence —
// deterministic structure, values vary.
//
// Stage semantics: the stages are measured intervals of one request, not
// a partition of its total. queue_wait spans admission → the instant the
// post takes its session's table lock (so it holds an injected delay and
// the wait behind the posts ahead); shard_exec is the kernel's time under
// the lock.
//
// All wall-clock reads funnel through Nanos — the single function on
// predlint's clock allowlist for this package and for serve — so the
// determinism contract ("timing feeds metrics, never results") stays
// mechanically checkable.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cohpredict/internal/obs"
)

// epoch anchors Nanos: package-load time, read once. Records carry
// offsets from it, never absolute wall times.
var epoch = time.Now()

// Nanos returns monotonic nanoseconds since process start. It is the one
// clock read the serving layer performs (predlint clock-allowlisted);
// every stamp and stage duration derives from it.
func Nanos() int64 { return int64(time.Since(epoch)) }

// Transport and route labels. The transport selects which histogram
// family a record observes into; every record is on the events route.
const (
	TransportJSON = "json"
	TransportWire = "wire"
	RouteEvents   = "events"
)

// Fault bits a record can carry, matching internal/fault's classes on
// the event path.
const (
	FaultDrop  uint32 = 1 << iota // batch dropped at queue admission (503)
	FaultDelay                    // admitted post stalled before the lock
	FaultError                    // injected 500 before processing
	FaultReset                    // connection reset after processing
)

// faultNames renders a fault bitmask in fixed order (deterministic JSON).
func faultNames(bits uint32) []string {
	if bits == 0 {
		return nil
	}
	out := make([]string, 0, 4)
	if bits&FaultDrop != 0 {
		out = append(out, "drop")
	}
	if bits&FaultDelay != 0 {
		out = append(out, "delay")
	}
	if bits&FaultError != 0 {
		out = append(out, "error")
	}
	if bits&FaultReset != 0 {
		out = append(out, "reset")
	}
	return out
}

// LatencyBuckets are the bounds (seconds) of the serve_*_seconds
// histograms: 50µs resolution at the fast end (a warm COHWIRE1 batch),
// stretching to multi-second outliers.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Defaults for the zero Options value.
const (
	DefaultSample        = 64
	DefaultSlowThreshold = 25 * time.Millisecond
	DefaultRingSize      = 512
	DefaultSlowSize      = 256
)

// Options configures a Recorder. The zero value records every-64th
// request into a 512-slot ring with a 25ms slow threshold.
type Options struct {
	// Registry receives the RED histograms; nil keeps tracing (rings and
	// captures work) but makes the histograms inert.
	Registry *obs.Registry
	// Sample records every Nth finished event post into the main ring
	// (1 = all). <=0 takes DefaultSample. Errored, faulted, and slow
	// requests bypass sampling into the slow-log.
	Sample int
	// SlowThreshold promotes requests at or above this total latency to
	// the slow-log. <=0 takes DefaultSlowThreshold.
	SlowThreshold time.Duration
	// Ring and Slow size the two capture rings. <=0 takes the defaults.
	Ring int
	Slow int
}

// histSet is one transport's pre-resolved histogram handles, so Finish
// observes without any lookup.
type histSet struct {
	request *obs.Histogram // serve_request_seconds_events_<transport>
	queue   *obs.Histogram // serve_queue_wait_seconds_events_<transport>
	exec    *obs.Histogram // serve_shard_exec_seconds_events_<transport>
}

func newHistSet(reg *obs.Registry, transport string) histSet {
	key := RouteEvents + "_" + transport
	return histSet{
		request: reg.Histogram("serve_request_seconds_"+key, LatencyBuckets),
		queue:   reg.Histogram("serve_queue_wait_seconds_"+key, LatencyBuckets),
		exec:    reg.Histogram("serve_shard_exec_seconds_"+key, LatencyBuckets),
	}
}

// Record is one request's flight trace, written only by the request's
// goroutine into storage it owns (serve keeps it in the request's pooled
// buffer); Finish copies a promoted record out. All methods are nil-safe
// so an untraced call path (standalone sessions, disabled recorder)
// costs one pointer test.
type Record struct {
	id        string
	session   string
	transport string

	seq      uint64
	status   int
	events   int
	bytesIn  int
	bytesOut int
	replay   bool

	start    int64 // Nanos at Begin
	enqueue  int64 // Nanos when the session admitted the batch
	execAt   int64 // Nanos when the post took the session's table lock
	decodeNS int64
	encodeNS int64
	execNS   int64  // the kernel's time under the lock
	batches  int64  // kernel runs that carried this request: 0 or 1
	fault    uint32 // Fault* bits
	queueNS  int64  // derived at Finish
	totalNS  int64  // derived at Finish
}

// SetID records the client-supplied X-Request-ID. Safe on nil.
func (r *Record) SetID(id string) {
	if r != nil {
		r.id = id
	}
}

// ID returns the recorded request id ("" on nil).
func (r *Record) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// SetSession records the target session id. Safe on nil.
func (r *Record) SetSession(id string) {
	if r != nil {
		r.session = id
	}
}

// SetEvents records the decoded batch size. Safe on nil.
func (r *Record) SetEvents(n int) {
	if r != nil {
		r.events = n
	}
}

// SetBytesIn records the request body size. Safe on nil.
func (r *Record) SetBytesIn(n int) {
	if r != nil {
		r.bytesIn = n
	}
}

// SetBytesOut records the response body size. Safe on nil.
func (r *Record) SetBytesOut(n int) {
	if r != nil {
		r.bytesOut = n
	}
}

// AddDecode accumulates request-decoding time. Safe on nil.
func (r *Record) AddDecode(ns int64) {
	if r != nil {
		r.decodeNS += ns
	}
}

// AddEncode accumulates response-encoding time. Safe on nil.
func (r *Record) AddEncode(ns int64) {
	if r != nil {
		r.encodeNS += ns
	}
}

// SetEnqueue stamps the instant the session admitted the batch;
// queue_wait is measured from here. Safe on nil.
func (r *Record) SetEnqueue(ns int64) {
	if r != nil {
		r.enqueue = ns
	}
}

// MarkReplay flags the request as served from the idempotency cache.
// Safe on nil.
func (r *Record) MarkReplay() {
	if r != nil {
		r.replay = true
	}
}

// MarkFault ORs an injected-fault bit into the record. Safe on nil.
//
//predlint:hotpath
func (r *Record) MarkFault(bits uint32) {
	if r != nil {
		r.fault |= bits
	}
}

// NoteExec stamps the post's one kernel run: start is the instant it
// took the session's table lock, exec the kernel's time under it.
// Cost: three stores, zero allocation. Safe on nil.
//
//predlint:hotpath
func (r *Record) NoteExec(start, exec int64) {
	if r != nil {
		r.execAt, r.execNS, r.batches = start, exec, 1
	}
}

// ring is a bounded capture buffer: it grows to size records, then each
// put overwrites the oldest.
type ring struct {
	recs []Record
	next int // the slot the next put overwrites once recs is full
	size int
}

func (g *ring) put(r *Record) {
	if len(g.recs) < g.size {
		g.recs = append(g.recs, *r)
		return
	}
	g.recs[g.next] = *r
	g.next = (g.next + 1) % g.size
}

// Recorder is the flight recorder: the two capture rings and the
// pre-resolved RED histogram families of the two transports.
type Recorder struct {
	sample uint64
	slowNS int64
	json   histSet
	wire   histSet

	seq atomic.Uint64

	mu         sync.Mutex
	ring, slow ring //predlint:guardedby mu
}

// New builds a recorder. A nil *Recorder is also valid: Begin returns a
// nil record and every stamp is a no-op.
func New(o Options) *Recorder {
	if o.Sample <= 0 {
		o.Sample = DefaultSample
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	if o.Ring <= 0 {
		o.Ring = DefaultRingSize
	}
	if o.Slow <= 0 {
		o.Slow = DefaultSlowSize
	}
	return &Recorder{
		sample: uint64(o.Sample),
		slowNS: int64(o.SlowThreshold),
		json:   newHistSet(o.Registry, TransportJSON),
		wire:   newHistSet(o.Registry, TransportWire),
		ring:   ring{size: o.Ring},
		slow:   ring{size: o.Slow},
	}
}

// Begin starts tracing one request in r, storage the caller owns: it
// clears r and stamps the transport and the start instant. It returns
// r, or nil on a nil recorder, so every later stamp is a no-op there.
func (rec *Recorder) Begin(r *Record, transport string) *Record {
	if rec == nil {
		return nil
	}
	*r = Record{transport: transport, start: Nanos()}
	return r
}

// Finish completes a record: derives the stage durations, observes the
// RED histograms, and copies the record into the slow-log if it erred,
// carried a fault, or crossed the slow threshold, or into the main ring
// if it hit the sampling stride. The caller may reuse r as soon as
// Finish returns. Safe on nil recorder or record.
func (rec *Recorder) Finish(r *Record, status int) {
	if rec == nil || r == nil {
		return
	}
	r.status = status
	r.totalNS = Nanos() - r.start
	if r.execAt > 0 && r.enqueue > 0 && r.execAt > r.enqueue {
		r.queueNS = r.execAt - r.enqueue
	}
	r.seq = rec.seq.Add(1)
	hs := &rec.json
	if r.transport == TransportWire {
		hs = &rec.wire
	}
	hs.request.Observe(float64(r.totalNS) / 1e9)
	hs.queue.Observe(float64(r.queueNS) / 1e9)
	hs.exec.Observe(float64(r.execNS) / 1e9)

	slow := status >= 400 || r.fault != 0 || r.totalNS >= rec.slowNS
	if !slow && r.seq%rec.sample != 0 {
		return
	}
	rec.mu.Lock()
	if slow {
		rec.slow.put(r)
	} else {
		rec.ring.put(r)
	}
	rec.mu.Unlock()
}

// Capture kinds.
const (
	KindRequests = "requests"
	KindSlow     = "slow"
)

// Entry is one captured request in wire (JSON) form. Durations are
// nanoseconds; see the package comment for the stage semantics.
type Entry struct {
	Seq       uint64   `json:"seq"`
	ID        string   `json:"id,omitempty"`
	Route     string   `json:"route"`
	Transport string   `json:"transport"`
	Session   string   `json:"session,omitempty"`
	Status    int      `json:"status"`
	Events    int      `json:"events"`
	Batches   int64    `json:"batches"`
	BytesIn   int      `json:"bytes_in"`
	BytesOut  int      `json:"bytes_out"`
	Replay    bool     `json:"replay,omitempty"`
	Faults    []string `json:"faults,omitempty"`
	TotalNS   int64    `json:"total_ns"`
	DecodeNS  int64    `json:"decode_ns"`
	QueueNS   int64    `json:"queue_ns"`
	// BatchNS is always 0: a post no longer waits to join a batch. The
	// field stays because the _perfbench harness reads it.
	BatchNS  int64 `json:"batch_ns"`
	ExecNS   int64 `json:"exec_ns"`
	EncodeNS int64 `json:"encode_ns"`
}

// Capture is the /v1/debug/{requests,slow} response document.
type Capture struct {
	Kind     string  `json:"kind"`
	Sample   int     `json:"sample"`
	SlowNS   int64   `json:"slow_threshold_ns"`
	Seen     uint64  `json:"requests_seen"`
	Requests []Entry `json:"requests"`
}

// Capture drains the named ring into a deterministic document: entries
// sorted by finish sequence (ascending — oldest first). The read is
// destructive: a second capture reports only requests finished since.
// Safe on a nil recorder.
func (rec *Recorder) Capture(kind string) Capture {
	c := Capture{Kind: kind, Requests: []Entry{}}
	if rec == nil {
		return c
	}
	c.Sample = int(rec.sample)
	c.SlowNS = rec.slowNS
	c.Seen = rec.seq.Load()
	rec.mu.Lock()
	g := &rec.ring
	if kind == KindSlow {
		g = &rec.slow
	}
	for i := range g.recs {
		r := &g.recs[i]
		c.Requests = append(c.Requests, Entry{
			Seq:       r.seq,
			ID:        r.id,
			Route:     RouteEvents,
			Transport: r.transport,
			Session:   r.session,
			Status:    r.status,
			Events:    r.events,
			Batches:   r.batches,
			BytesIn:   r.bytesIn,
			BytesOut:  r.bytesOut,
			Replay:    r.replay,
			Faults:    faultNames(r.fault),
			TotalNS:   r.totalNS,
			DecodeNS:  r.decodeNS,
			QueueNS:   r.queueNS,
			ExecNS:    r.execNS,
			EncodeNS:  r.encodeNS,
		})
	}
	g.recs, g.next = g.recs[:0], 0
	rec.mu.Unlock()
	sort.Slice(c.Requests, func(i, j int) bool { return c.Requests[i].Seq < c.Requests[j].Seq })
	return c
}
