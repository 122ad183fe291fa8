package traffic

// The COHTRACE1 recorder: the serve layer calls RecordSession once per
// session that comes live and RecordEvents once per batch that actually
// trained the engine (idempotent replays never reach it), and Bytes()
// yields a canonical trace file that predload can replay. Encoding
// happens synchronously in RecordEvents — the event slice belongs to a
// pooled request buffer and is dead the moment the handler returns — so
// the append kernel must be cheap: everything goes into one growing
// byte buffer, amortized allocation-free once its capacity has warmed up
// (TestRecorderAppendAllocFree pins the steady state at zero).

import (
	"sync"

	"cohpredict/internal/eval"
	"cohpredict/internal/flight"
	"cohpredict/internal/trace"
)

// Recorder accumulates an accepted event stream in COHTRACE1 form. Safe
// for concurrent use: the serve layer's handlers append from many
// goroutines, and the recorder's mutex serializes them into one total
// order (which, for the serialized-per-session posting the determinism
// tests drive, is exactly the training order).
type Recorder struct {
	now func() int64 // arrival clock; immutable after construction

	mu       sync.Mutex
	started  bool              //predlint:guardedby mu
	start    int64             //predlint:guardedby mu
	buf      []byte            //predlint:guardedby mu
	count    int               //predlint:guardedby mu
	sessions map[string]uint64 //predlint:guardedby mu
	nextSeq  uint64            //predlint:guardedby mu
	last     uint64            //predlint:guardedby mu
	skipped  int               //predlint:guardedby mu
}

// NewRecorder builds a recorder stamping arrival offsets from
// flight.Nanos — the serve layer's single clock.
func NewRecorder() *Recorder {
	return NewRecorderClock(flight.Nanos)
}

// NewRecorderClock is NewRecorder with an injected clock (tests and the
// golden-trace generator pass a deterministic one, so committed traces
// are byte-for-byte reproducible).
func NewRecorderClock(now func() int64) *Recorder {
	return &Recorder{now: now, sessions: make(map[string]uint64)}
}

// arrivalClamp maps a raw clock reading to the next arrival offset:
// nanoseconds since the first record, clamped non-negative and
// non-decreasing (the codec's invariant). Pure; the callers own the
// guarded state updates.
func arrivalClamp(t, start int64, last uint64) uint64 {
	ns := t - start
	if ns < 0 {
		ns = 0
	}
	a := uint64(ns)
	if a < last {
		a = last
	}
	return a
}

// RecordSession records that a session came live. Safe on nil.
func (r *Recorder) RecordSession(id, scheme string, nodes, lineBytes, shards int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[id]; ok {
		return // duplicate create (cannot happen through the serve layer)
	}
	t := r.now()
	if !r.started { // the first record starts the arrival clock
		r.started = true
		r.start = t
	}
	r.last = arrivalClamp(t, r.start, r.last)
	seq := r.nextSeq
	r.nextSeq++
	r.sessions[id] = seq
	if len(scheme) > maxTraceString {
		scheme = scheme[:maxTraceString]
	}
	r.buf = appendSessionRecord(r.buf, seq, scheme, nodes, lineBytes, shards)
	r.count++
}

// RecordEvents records one accepted (trained) batch. A session created
// before recording was enabled has no sequence number; its batches are
// counted in Skipped and left out rather than corrupting the trace.
// Empty batches are ignored. Safe on nil.
//
//predlint:hotpath
func (r *Recorder) RecordEvents(sessionID, requestID string, evs []trace.Event) {
	if r == nil || len(evs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seq, ok := r.sessions[sessionID]
	if !ok {
		r.skipped++
		return
	}
	if len(requestID) > maxTraceString {
		requestID = requestID[:maxTraceString]
	}
	t := r.now()
	if !r.started { // the first record starts the arrival clock
		r.started = true
		r.start = t
	}
	r.last = arrivalClamp(t, r.start, r.last)
	r.buf = appendRequestRecord(r.buf, seq, r.last, requestID, evs)
	r.count++
}

// Bytes returns the canonical COHTRACE1 file for everything recorded so
// far (a fresh copy; recording may continue afterwards). Safe on nil.
func (r *Recorder) Bytes() []byte {
	if r == nil {
		return EncodeTraceFile(nil)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dst := append([]byte(nil), traceMagic...)
	dst = eval.AppendUvarint(dst, uint64(r.count))
	return append(dst, r.buf...)
}

// Records reports how many records (sessions + requests) are captured.
// Safe on nil.
func (r *Recorder) Records() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Skipped reports how many batches were dropped because their session
// predates the recorder. Safe on nil.
func (r *Recorder) Skipped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.skipped
}
