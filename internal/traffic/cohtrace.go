// Package traffic is the production-traffic layer around predserve: a
// seeded open-loop load generator (Poisson / bursty / diurnal arrival
// processes over session-count, session-lifetime, and event-mix knobs),
// an SLO report distilled from client-side timings and the server's
// flight histograms, and COHTRACE1 — a compact on-disk trace format that
// turns any recorded incident into a deterministic regression test:
// `predserve -record file.cohtrace` captures the accepted event stream,
// `predload -replay file.cohtrace` reproduces it (same sessions, same
// batching, same request IDs), and the served predictions and confusion
// come back byte-identical at any shard count.
//
// COHTRACE1 follows the COHSNAP1/COHWIRE1 codec discipline exactly:
//
//	file    := magic count:uvarint record*count
//	magic   := "COHTRACE1"                                (9 bytes)
//	record  := kind payload
//	kind 1  := session: seq scheme:string nodes line_bytes shards
//	kind 2  := request: session arrival_ns id:string count:uvarint event*count
//	string  := len:uvarint byte*len
//	event   := pid pc dir addr inv_readers has_prev [prev_pid prev_pc] future_readers
//
// Every integer is a minimal-length uvarint (eval.Uvarint rejects any
// other form), has_prev is a canonical boolean, strings are raw bytes
// behind a bounded length prefix, and trailing bytes are rejected. One
// encoding per value makes the decoders canonical —
// Encode(Decode(b)) == b for every accepted input b, the property the
// fuzz targets pin. The file decoder additionally enforces the
// cross-record invariants the recorder guarantees: session records carry
// consecutive sequence numbers in order of appearance, every request
// names a previously-declared session, arrival offsets never decrease,
// and event fields fit the owning session's machine.
package traffic

import (
	"errors"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/eval"
	"cohpredict/internal/trace"
)

// traceMagic identifies the trace format (and its version).
const traceMagic = "COHTRACE1"

// Record kinds. A request fed to a decoder expecting a session (or a
// kind outside the enum) is rejected, never mis-decoded.
const (
	TraceKindSession = 1
	TraceKindRequest = 2
)

const (
	// maxTraceString bounds the scheme and request-ID strings (the serve
	// layer's idempotency keys observe the same 128-byte cap).
	maxTraceString = 128
	// maxTraceBatch bounds one request's event count, matching the serve
	// layer's batch limit (serve.MaxBatchEvents).
	maxTraceBatch = 1 << 16
	// maxTraceLineBytes bounds a session's cache-line size.
	maxTraceLineBytes = 1 << 20
	// maxTraceShards matches the serve layer's shard-pool cap.
	maxTraceShards = 64
	// minTraceEventBytes is the smallest encoded event (seven single-byte
	// uvarints), and minTraceRecordBytes the smallest record (an empty-id
	// request header); both bound declared counts before any allocation.
	minTraceEventBytes  = 7
	minTraceRecordBytes = 5
)

// Static decode errors. The append kernels run on the serve layer's
// accepted path (no fmt), so each failure mode is a sentinel; callers
// wrap them with file or request context.
var (
	errTraceMagic      = errors.New("traffic: trace magic missing")
	errTraceKind       = errors.New("traffic: trace record kind unknown")
	errTraceTruncated  = errors.New("traffic: trace truncated")
	errTraceNonMinimal = errors.New("traffic: trace has a non-minimal varint")
	errTraceCount      = errors.New("traffic: trace count exceeds input or limit")
	errTraceBool       = errors.New("traffic: trace has a non-boolean has_prev word")
	errTraceTrailing   = errors.New("traffic: trace has trailing bytes")
	errTraceString     = errors.New("traffic: trace string length out of range")
	errTraceRange      = errors.New("traffic: trace event field out of range")
	errTraceConfig     = errors.New("traffic: trace session config out of range")
	errTraceSessionSeq = errors.New("traffic: trace session records out of sequence")
	errTraceSessionRef = errors.New("traffic: trace request names an undeclared session")
	errTraceArrival    = errors.New("traffic: trace arrival offsets decrease")
)

// TraceSession is a kind-1 record: a session came live. Seq is the
// session's position in the trace (0-based, in creation order) — request
// records refer to it, so replay does not depend on server-assigned IDs.
type TraceSession struct {
	Seq       uint64
	Scheme    string
	Nodes     int
	LineBytes int
	Shards    int
}

// TraceRequest is a kind-2 record: one accepted event batch. ArrivalNS
// is the offset from the start of the recording (non-decreasing across
// the file); ID is the client's X-Request-ID as the server saw it
// (possibly empty); Events is the batch exactly as trained.
type TraceRequest struct {
	Session   uint64
	ArrivalNS uint64
	ID        string
	Events    []trace.Event
}

// TraceRecord is one COHTRACE1 record; Kind selects which half is live.
type TraceRecord struct {
	Kind    int
	Session TraceSession // valid when Kind == TraceKindSession
	Request TraceRequest // valid when Kind == TraceKindRequest
}

// appendTraceString encodes a length-prefixed string.
//
//predlint:hotpath
func appendTraceString(dst []byte, s string) []byte {
	dst = eval.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTraceEvent encodes one event's field group — the COHWIRE1 event
// layout, so a recorded batch costs the same per-event bytes as the wire
// frame it arrived in.
//
//predlint:hotpath
func appendTraceEvent(dst []byte, ev *trace.Event) []byte {
	dst = eval.AppendUvarint(dst, uint64(ev.PID))
	dst = eval.AppendUvarint(dst, ev.PC)
	dst = eval.AppendUvarint(dst, uint64(ev.Dir))
	dst = eval.AppendUvarint(dst, ev.Addr)
	dst = eval.AppendUvarint(dst, uint64(ev.InvReaders))
	if ev.HasPrev {
		dst = eval.AppendUvarint(dst, 1)
		dst = eval.AppendUvarint(dst, uint64(ev.PrevPID))
		dst = eval.AppendUvarint(dst, ev.PrevPC)
	} else {
		dst = eval.AppendUvarint(dst, 0)
	}
	return eval.AppendUvarint(dst, uint64(ev.FutureReaders))
}

// appendSessionRecord encodes a kind-1 record.
//
//predlint:hotpath
func appendSessionRecord(dst []byte, seq uint64, scheme string, nodes, lineBytes, shards int) []byte {
	dst = eval.AppendUvarint(dst, TraceKindSession)
	dst = eval.AppendUvarint(dst, seq)
	dst = appendTraceString(dst, scheme)
	dst = eval.AppendUvarint(dst, uint64(nodes))
	dst = eval.AppendUvarint(dst, uint64(lineBytes))
	return eval.AppendUvarint(dst, uint64(shards))
}

// appendRequestRecord encodes a kind-2 record. It is the recorder's
// append kernel — one call per accepted batch on the serve path — so it
// takes fields directly (no record struct to escape) and only ever
// appends.
//
//predlint:hotpath
func appendRequestRecord(dst []byte, sess, arrivalNS uint64, id string, evs []trace.Event) []byte {
	dst = eval.AppendUvarint(dst, TraceKindRequest)
	dst = eval.AppendUvarint(dst, sess)
	dst = eval.AppendUvarint(dst, arrivalNS)
	dst = appendTraceString(dst, id)
	dst = eval.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		dst = appendTraceEvent(dst, &evs[i])
	}
	return dst
}

// AppendTraceRecord appends the canonical encoding of one record to dst
// and returns the extended slice — the encoder the round-trip proofs
// re-encode with.
func AppendTraceRecord(dst []byte, rec *TraceRecord) []byte {
	if rec.Kind == TraceKindSession {
		s := &rec.Session
		return appendSessionRecord(dst, s.Seq, s.Scheme, s.Nodes, s.LineBytes, s.Shards)
	}
	r := &rec.Request
	return appendRequestRecord(dst, r.Session, r.ArrivalNS, r.ID, r.Events)
}

// EncodeTraceFile encodes a full COHTRACE1 file: magic, record count,
// records in order.
func EncodeTraceFile(recs []TraceRecord) []byte {
	dst := append([]byte(nil), traceMagic...)
	dst = eval.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = AppendTraceRecord(dst, &recs[i])
	}
	return dst
}

// traceReader consumes canonical uvarints and bounded strings; the first
// failure sticks in err and every later read returns zero.
type traceReader struct {
	b   []byte
	err error
}

func (r *traceReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, ok := eval.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errTraceTruncated
		return 0
	case !ok:
		r.err = errTraceNonMinimal
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *traceReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxTraceString {
		r.err = errTraceString
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = errTraceTruncated
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// decodeTraceEvent decodes one event field group, validating ranges
// against an n-node machine.
func (r *traceReader) event(nodes int) (trace.Event, error) {
	var ev trace.Event
	full := uint64(bitmap.Full(nodes))
	pid := r.uvarint()
	ev.PC = r.uvarint()
	dir := r.uvarint()
	ev.Addr = r.uvarint()
	inv := r.uvarint()
	hp := r.uvarint()
	if r.err != nil {
		return ev, r.err
	}
	if hp > 1 {
		return ev, errTraceBool
	}
	if hp == 1 {
		ev.HasPrev = true
		prevPID := r.uvarint()
		ev.PrevPC = r.uvarint()
		if r.err != nil {
			return ev, r.err
		}
		if prevPID >= uint64(nodes) {
			return ev, errTraceRange
		}
		ev.PrevPID = int(prevPID)
	}
	future := r.uvarint()
	if r.err != nil {
		return ev, r.err
	}
	if pid >= uint64(nodes) || dir >= uint64(nodes) || inv&^full != 0 || future&^full != 0 {
		return ev, errTraceRange
	}
	ev.PID = int(pid)
	ev.Dir = int(dir)
	ev.InvReaders = bitmap.Bitmap(inv)
	ev.FutureReaders = bitmap.Bitmap(future)
	return ev, nil
}

// DecodeTraceRecord decodes one record from the front of data, returning
// the record and the number of bytes consumed. Validation here is
// record-local (field ranges against the 64-node bitmap cap; the file
// decoder re-checks events against the owning session's machine). The
// decoder never panics, and accepts only the canonical form:
// AppendTraceRecord over the result reproduces data[:n] byte for byte.
func DecodeTraceRecord(data []byte) (rec TraceRecord, n int, err error) {
	r := traceReader{b: data}
	kind := r.uvarint()
	if r.err != nil {
		return rec, 0, r.err
	}
	switch kind {
	case TraceKindSession:
		rec.Kind = TraceKindSession
		s := &rec.Session
		s.Seq = r.uvarint()
		s.Scheme = r.str()
		nodes := r.uvarint()
		lineBytes := r.uvarint()
		shards := r.uvarint()
		if r.err != nil {
			return rec, 0, r.err
		}
		if s.Scheme == "" {
			return rec, 0, errTraceString
		}
		if nodes == 0 || nodes > bitmap.MaxNodes ||
			lineBytes == 0 || lineBytes > maxTraceLineBytes || lineBytes&(lineBytes-1) != 0 ||
			shards == 0 || shards > maxTraceShards {
			return rec, 0, errTraceConfig
		}
		s.Nodes = int(nodes)
		s.LineBytes = int(lineBytes)
		s.Shards = int(shards)
	case TraceKindRequest:
		rec.Kind = TraceKindRequest
		q := &rec.Request
		q.Session = r.uvarint()
		q.ArrivalNS = r.uvarint()
		q.ID = r.str()
		count := r.uvarint()
		if r.err != nil {
			return rec, 0, r.err
		}
		if count == 0 || count > maxTraceBatch || count > uint64(len(r.b))/minTraceEventBytes {
			return rec, 0, errTraceCount
		}
		q.Events = make([]trace.Event, 0, count)
		for i := uint64(0); i < count; i++ {
			ev, err := r.event(bitmap.MaxNodes)
			if err != nil {
				return rec, 0, err
			}
			q.Events = append(q.Events, ev)
		}
	default:
		return rec, 0, errTraceKind
	}
	return rec, len(data) - len(r.b), nil
}

// DecodeTraceFile decodes a full COHTRACE1 file, enforcing both the
// per-record canonical form and the cross-record invariants: consecutive
// session sequence numbers, declared-session references, non-decreasing
// arrivals, and event fields within each owning session's machine. It
// never panics; EncodeTraceFile over the result reproduces the input
// exactly.
func DecodeTraceFile(data []byte) ([]TraceRecord, error) {
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return nil, errTraceMagic
	}
	rest := data[len(traceMagic):]
	count, n, ok := eval.Uvarint(rest)
	switch {
	case n == 0:
		return nil, errTraceTruncated
	case !ok:
		return nil, errTraceNonMinimal
	}
	rest = rest[n:]
	if count > uint64(len(rest))/minTraceRecordBytes {
		return nil, errTraceCount
	}

	recs := make([]TraceRecord, 0, count)
	var sessions []int // nodes per declared seq
	var lastArrival uint64
	for i := uint64(0); i < count; i++ {
		rec, used, err := DecodeTraceRecord(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[used:]
		switch rec.Kind {
		case TraceKindSession:
			if rec.Session.Seq != uint64(len(sessions)) {
				return nil, errTraceSessionSeq
			}
			sessions = append(sessions, rec.Session.Nodes)
		case TraceKindRequest:
			q := &rec.Request
			if q.Session >= uint64(len(sessions)) {
				return nil, errTraceSessionRef
			}
			if q.ArrivalNS < lastArrival {
				return nil, errTraceArrival
			}
			lastArrival = q.ArrivalNS
			nodes := sessions[q.Session]
			full := uint64(bitmap.Full(nodes))
			for j := range q.Events {
				ev := &q.Events[j]
				if ev.PID >= nodes || ev.Dir >= nodes ||
					uint64(ev.InvReaders)&^full != 0 || uint64(ev.FutureReaders)&^full != 0 ||
					(ev.HasPrev && ev.PrevPID >= nodes) {
					return nil, errTraceRange
				}
			}
		}
		recs = append(recs, rec)
	}
	if len(rest) != 0 {
		return nil, errTraceTrailing
	}
	return recs, nil
}

// IsTraceFile reports whether data begins with the COHTRACE1 magic.
func IsTraceFile(data []byte) bool {
	return len(data) >= len(traceMagic) && string(data[:len(traceMagic)]) == traceMagic
}
