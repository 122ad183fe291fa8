// Package flight is the serve path's flight recorder: an always-on,
// sampled, per-request trace capture with per-stage latency accounting.
// The aggregate serve_* counters say *how much* the service did; this
// package answers "why was THIS request slow, and which injected fault
// hit it?" — the per-instance discipline a multi-node router needs before
// it can make health and rebalancing decisions.
//
// Every event post gets a pooled Record stamped through its life:
//
//	decode → queue-wait → batch-wait → shard-execute → encode
//
// The handler stamps decode/encode and the request identity (client
// X-Request-ID, transport, byte sizes); the session stamps the enqueue
// instant; the shard workers stamp batch execution through two hot-path
// kernels (NoteBatch, MarkFault) that cost a few atomic operations per
// micro-batch — never per event — and allocate nothing.
//
// At Finish the record is promoted tail-based: requests that erred, were
// hit by an injected fault, or ran slower than the threshold always land
// in the bounded slow-log; of the rest, one in Sample lands in the main
// ring. Both rings are lock-free fixed-size arrays of atomic pointers
// with swap-ownership semantics: a writer publishes a record with a
// single Swap (recycling whatever it displaced), and a reader drains by
// swapping nil in — every record is owned by exactly one party at all
// times, so the capture path is race-free without a lock anywhere.
//
// Captures read DESTRUCTIVELY: GET /v1/debug/requests (or /slow) drains
// the ring it reads, so two consecutive captures never report the same
// request twice, and entries are ordered by a global finish sequence —
// deterministic structure, values vary.
//
// Stage semantics: the stages are independently measured intervals, not
// a partition of the total. queue_wait spans enqueue → first shard
// execution start (it therefore contains the first micro-batch's
// coalescing window); batch_wait accumulates each distinct micro-batch's
// coalescing wait; shard_exec accumulates the processing time of every
// micro-batch that carried one of the request's events.
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

// Transport and route labels. They select which per-route/per-transport
// histogram family a record observes into.
const (
	TransportJSON = "json"
	TransportWire = "wire"
	RouteEvents   = "events"
)

// Fault bits a record can carry, matching internal/fault's classes on
// the event path.
const (
	FaultDrop  uint32 = 1 << iota // batch dropped at queue admission (503)
	FaultDelay                    // shard micro-batch stalled
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

// histSet is one (route, transport) family's pre-resolved histogram
// handles; records hold a pointer so Finish observes without any lookup.
type histSet struct {
	request *obs.Histogram // serve_request_seconds_<route>_<transport>
	queue   *obs.Histogram // serve_queue_wait_seconds_<route>_<transport>
	batch   *obs.Histogram // serve_batch_wait_seconds_<route>_<transport>
	exec    *obs.Histogram // serve_shard_exec_seconds_<route>_<transport>
}

// Record is one request's flight trace. The handler goroutine owns the
// plain fields; shard workers touch only the atomic ones, through
// NoteBatch and MarkFault. All methods are nil-safe so an untraced call
// path (standalone sessions, disabled recorder) costs one pointer test.
// Ownership moves by handoff only — pool Get, ring Swap, Finish — and
// the //predlint:owned contract makes touching a record after handing it
// off a lint finding.
//
//predlint:owned
type Record struct {
	id        string
	session   string
	route     string
	transport string
	hist      *histSet

	seq      uint64
	status   int
	events   int
	bytesIn  int
	bytesOut int
	replay   bool

	start    int64 // Nanos at Begin
	enqueue  int64 // Nanos when the session admitted the batch
	decodeNS int64
	encodeNS int64
	queueNS  int64 // derived at Finish
	totalNS  int64 // derived at Finish

	// Stamped by shard workers, possibly concurrently from several shards.
	// A post lands in at most one micro-batch per shard it touches, so
	// batches never exceeds the session's shard count.
	firstExec atomic.Int64  // earliest micro-batch execution start
	batchNS   atomic.Int64  // accumulated coalescing wait across batches
	execNS    atomic.Int64  // accumulated processing time across batches
	batches   atomic.Int64  // micro-batches that carried this request
	fault     atomic.Uint32 // Fault* bits
}

// reset clears a pooled record for reuse. The recorder owns the record
// exclusively here (pool Get / ring Swap both order the handoff).
func (r *Record) reset() {
	r.id, r.session, r.route, r.transport, r.hist = "", "", "", "", nil
	r.seq, r.status, r.events, r.bytesIn, r.bytesOut = 0, 0, 0, 0, 0
	r.replay = false
	r.start, r.enqueue, r.decodeNS, r.encodeNS, r.queueNS, r.totalNS = 0, 0, 0, 0, 0, 0
	r.firstExec.Store(0)
	r.batchNS.Store(0)
	r.execNS.Store(0)
	r.batches.Store(0)
	r.fault.Store(0)
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

// SetEnqueue stamps the instant the session admitted the batch to the
// shard queues; queue_wait is measured from here. Safe on nil.
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

// MarkFault ORs an injected-fault bit into the record. Shard workers and
// the handler may race; the CAS loop makes the OR atomic without
// sync/atomic's 1.23-only Or. Safe on nil.
//
//predlint:hotpath
func (r *Record) MarkFault(bits uint32) {
	if r == nil {
		return
	}
	for {
		old := r.fault.Load()
		if old&bits == bits || r.fault.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// NoteBatch is the shard worker's stamping kernel, called once per
// (request, micro-batch): execStart is the batch's processing start,
// wait its coalescing wait, exec its processing time. A post sends each
// shard at most one run, and a run rides exactly one micro-batch, so no
// batch stamps a record twice.
// Cost: a handful of atomic ops per batch, zero allocation. Safe on nil.
//
//predlint:hotpath
func (r *Record) NoteBatch(execStart, wait, exec int64) {
	if r == nil {
		return
	}
	r.batches.Add(1)
	r.batchNS.Add(wait)
	r.execNS.Add(exec)
	for {
		old := r.firstExec.Load()
		if old != 0 && old <= execStart {
			return
		}
		if r.firstExec.CompareAndSwap(old, execStart) {
			return
		}
	}
}

// ring is a fixed-size lock-free capture ring. put publishes a record
// with one Swap and returns whatever it displaced (the caller recycles
// it); drain swaps nil into every slot, taking ownership of the
// contents. Ownership moves only through those swaps, so concurrent
// writers and a draining reader never share a live record.
type ring struct {
	slots []atomic.Pointer[Record]
	next  atomic.Uint64
}

func newRing(n int) *ring { return &ring{slots: make([]atomic.Pointer[Record], n)} }

// put publishes r into the ring, transferring ownership; the displaced
// record comes back for the caller to recycle.
//
//predlint:handoff
func (g *ring) put(r *Record) *Record {
	i := g.next.Add(1) - 1
	return g.slots[i%uint64(len(g.slots))].Swap(r)
}

func (g *ring) drain() []*Record {
	out := make([]*Record, 0, len(g.slots))
	for i := range g.slots {
		if r := g.slots[i].Swap(nil); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Recorder is the flight recorder: a record pool, the two capture rings,
// and the pre-resolved RED histogram families.
type Recorder struct {
	sample uint64
	slowNS int64

	seq  atomic.Uint64
	pool sync.Pool
	ring *ring
	slow *ring

	// evJSON and evWire are the two event-path families, resolved once in
	// New so Begin's hot path never touches the map or its mutex. (Begin
	// used to read hists lock-free for these keys, racing histSet's
	// insert of a novel route/transport pair — a concurrent map
	// read/write the guardedby annotation below now makes impossible to
	// reintroduce.)
	evJSON *histSet
	evWire *histSet

	mu    sync.Mutex
	hists map[string]*histSet //predlint:guardedby mu
	reg   *obs.Registry
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
	r := &Recorder{
		sample: uint64(o.Sample),
		slowNS: int64(o.SlowThreshold),
		ring:   newRing(o.Ring),
		slow:   newRing(o.Slow),
		hists:  make(map[string]*histSet),
		reg:    o.Registry,
	}
	r.pool.New = func() interface{} { return new(Record) }
	// Pre-resolve the known families so the event path never takes the
	// resolution mutex (or touches the guarded map) at all.
	r.evJSON = r.histSet(RouteEvents, TransportJSON)
	r.evWire = r.histSet(RouteEvents, TransportWire)
	return r
}

// histSet resolves (creating on first use) the histogram family for a
// (route, transport) pair.
func (rec *Recorder) histSet(route, transport string) *histSet {
	key := route + "_" + transport
	rec.mu.Lock()
	defer rec.mu.Unlock()
	hs := rec.hists[key]
	if hs == nil {
		hs = &histSet{
			request: rec.reg.Histogram("serve_request_seconds_"+key, LatencyBuckets),
			queue:   rec.reg.Histogram("serve_queue_wait_seconds_"+key, LatencyBuckets),
			batch:   rec.reg.Histogram("serve_batch_wait_seconds_"+key, LatencyBuckets),
			exec:    rec.reg.Histogram("serve_shard_exec_seconds_"+key, LatencyBuckets),
		}
		rec.hists[key] = hs
	}
	return hs
}

// Begin starts tracing one request: a pooled record, reset, with its
// histogram family resolved and the start instant stamped. Safe on a nil
// recorder (returns nil, and every Record method tolerates nil).
func (rec *Recorder) Begin(route, transport string) *Record {
	if rec == nil {
		return nil
	}
	r := rec.pool.Get().(*Record)
	r.reset()
	r.route, r.transport = route, transport
	switch {
	case route == RouteEvents && transport == TransportJSON:
		r.hist = rec.evJSON
	case route == RouteEvents && transport == TransportWire:
		r.hist = rec.evWire
	default:
		r.hist = rec.histSet(route, transport)
	}
	r.start = Nanos()
	return r
}

// Finish completes a record: derives the stage durations, observes the
// RED histograms, and promotes the record — to the slow-log if it erred,
// carried a fault, or crossed the slow threshold; to the main ring if it
// hit the sampling stride; back to the pool otherwise. After Finish the
// caller must not touch the record (enforced by the goroutineown check
// through the handoff annotation). Safe on nil recorder or record.
//
//predlint:handoff
func (rec *Recorder) Finish(r *Record, status int) {
	if rec == nil || r == nil {
		return
	}
	r.status = status
	r.totalNS = Nanos() - r.start
	if first := r.firstExec.Load(); first > 0 && r.enqueue > 0 && first > r.enqueue {
		r.queueNS = first - r.enqueue
	}
	r.seq = rec.seq.Add(1)
	if hs := r.hist; hs != nil {
		hs.request.Observe(float64(r.totalNS) / 1e9)
		hs.queue.Observe(float64(r.queueNS) / 1e9)
		hs.batch.Observe(float64(r.batchNS.Load()) / 1e9)
		hs.exec.Observe(float64(r.execNS.Load()) / 1e9)
	}
	switch {
	case status >= 400 || r.fault.Load() != 0 || r.totalNS >= rec.slowNS:
		rec.recycle(rec.slow.put(r))
	case r.seq%rec.sample == 0:
		rec.recycle(rec.ring.put(r))
	default:
		rec.pool.Put(r)
	}
}

// recycle returns a displaced record to the pool.
//
//predlint:handoff
func (rec *Recorder) recycle(r *Record) {
	if r != nil {
		rec.pool.Put(r)
	}
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
	BatchNS   int64    `json:"batch_ns"`
	ExecNS    int64    `json:"exec_ns"`
	EncodeNS  int64    `json:"encode_ns"`
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
// destructive: drained records return to the pool, so a second capture
// reports only requests finished since. Safe on a nil recorder.
func (rec *Recorder) Capture(kind string) Capture {
	c := Capture{Kind: kind, Requests: []Entry{}}
	if rec == nil {
		return c
	}
	c.Sample = int(rec.sample)
	c.SlowNS = rec.slowNS
	c.Seen = rec.seq.Load()
	g := rec.ring
	if kind == KindSlow {
		g = rec.slow
	}
	recs := g.drain()
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for _, r := range recs {
		c.Requests = append(c.Requests, Entry{
			Seq:       r.seq,
			ID:        r.id,
			Route:     r.route,
			Transport: r.transport,
			Session:   r.session,
			Status:    r.status,
			Events:    r.events,
			Batches:   r.batches.Load(),
			BytesIn:   r.bytesIn,
			BytesOut:  r.bytesOut,
			Replay:    r.replay,
			Faults:    faultNames(r.fault.Load()),
			TotalNS:   r.totalNS,
			DecodeNS:  r.decodeNS,
			QueueNS:   r.queueNS,
			BatchNS:   r.batchNS.Load(),
			ExecNS:    r.execNS.Load(),
			EncodeNS:  r.encodeNS,
		})
		rec.pool.Put(r)
	}
	return c
}
