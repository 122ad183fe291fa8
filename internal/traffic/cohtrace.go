// Package traffic is the production-traffic layer around predserve: a
// seeded open-loop load generator (Poisson / bursty / diurnal arrival
// processes over session-count, session-lifetime, and event-mix knobs),
// an SLO report distilled from client-side timings and the server's
// flight histograms, and COHTRACE1 — a compact on-disk trace format that
// turns any recorded incident into a deterministic regression test:
// `predserve -record file.cohtrace` captures the accepted event stream,
// `predload -replay file.cohtrace` reproduces it (same sessions, same
// batching, same request IDs), and the served predictions and confusion
// come back byte-identical.
//
// COHTRACE1 follows internal/codec's discipline:
//
//	file    := magic count:uvarint record*count
//	magic   := "COHTRACE1"                                (9 bytes)
//	record  := kind payload
//	kind 1  := session: seq scheme:string nodes line_bytes shards
//	           (shards: what the session reported, 1 to 64; a replay
//	           checks its range and otherwise ignores it)
//	kind 2  := request: session arrival_ns id:string block
//	string  := len:uvarint byte*len
//
// A request's block is the event block internal/trace defines for every
// format that carries events, so a recorded batch holds the same bytes as
// the COHWIRE1 batch it arrived in, behind a different header. Every
// integer is a minimal-length uvarint, strings are raw bytes behind a
// bounded length prefix, and trailing bytes are rejected. One encoding
// per value makes the decoders canonical — Encode(Decode(b)) == b for
// every accepted input b, the property the fuzz targets pin. The file
// decoder additionally enforces the cross-record invariants the recorder
// guarantees: session records carry consecutive sequence numbers in
// order of appearance, every request names a previously-declared session,
// arrival offsets never decrease, and event fields fit the owning
// session's machine.
package traffic

import (
	"errors"
	"fmt"
	"math"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
	"cohpredict/internal/core"
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
	// maxTraceShards matches the serve layer's range check on shards.
	maxTraceShards = 64
	// minTraceRecordBytes is the smallest record (an empty-id request
	// header); it bounds the declared record count before any allocation.
	minTraceRecordBytes = 5
)

// Decode errors of the trace's own rules. Malformed encodings fail with
// codec's errors, and event fields outside a machine with trace.ErrRange.
var (
	errTraceMagic      = errors.New("traffic: trace magic missing")
	errTraceKind       = errors.New("traffic: trace record kind unknown")
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
	dst = codec.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendSessionRecord encodes a kind-1 record.
//
//predlint:hotpath
func appendSessionRecord(dst []byte, seq uint64, scheme string, nodes, lineBytes, shards int) []byte {
	dst = codec.AppendUvarint(dst, TraceKindSession)
	dst = codec.AppendUvarint(dst, seq)
	dst = appendTraceString(dst, scheme)
	dst = codec.AppendUvarint(dst, uint64(nodes))
	dst = codec.AppendUvarint(dst, uint64(lineBytes))
	return codec.AppendUvarint(dst, uint64(shards))
}

// appendRequestRecord encodes a kind-2 record. It is the recorder's
// append kernel — one call per accepted batch on the serve path — so it
// takes fields directly (no record struct to escape) and only ever
// appends.
//
//predlint:hotpath
func appendRequestRecord(dst []byte, sess, arrivalNS uint64, id string, evs []trace.Event) []byte {
	dst = codec.AppendUvarint(dst, TraceKindRequest)
	dst = codec.AppendUvarint(dst, sess)
	dst = codec.AppendUvarint(dst, arrivalNS)
	dst = appendTraceString(dst, id)
	return trace.AppendBlock(dst, evs)
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
	dst = codec.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = AppendTraceRecord(dst, &recs[i])
	}
	return dst
}

// DecodeTraceRecord decodes one record from the front of data, returning
// the record and the number of bytes consumed. Validation here is
// record-local (field ranges against the 64-node bitmap cap; the file
// decoder re-checks events against the owning session's machine). The
// decoder never panics, and accepts only the canonical form:
// AppendTraceRecord over the result reproduces data[:n] byte for byte.
func DecodeTraceRecord(data []byte) (rec TraceRecord, n int, err error) {
	r := codec.NewReader(data)
	switch kind := r.Uvarint(); {
	case r.Err() != nil:
		return rec, 0, r.Err()
	case kind == TraceKindSession:
		rec.Kind = TraceKindSession
		s := &rec.Session
		s.Seq = r.Uvarint()
		s.Scheme = string(r.Bytes(maxTraceString))
		m := core.Machine{Nodes: int(r.Uvarint()), LineBytes: int(r.Uvarint())}
		shards := r.Uvarint()
		if r.Err() != nil {
			return rec, 0, r.Err()
		}
		if err := m.Validate(); err != nil {
			return rec, 0, fmt.Errorf("%w: %w", errTraceConfig, err)
		}
		if s.Scheme == "" || shards == 0 || shards > maxTraceShards {
			return rec, 0, errTraceConfig
		}
		s.Nodes, s.LineBytes, s.Shards = m.Nodes, m.LineBytes, int(shards)
		return rec, len(data) - len(r.Rest()), nil
	case kind == TraceKindRequest:
		rec.Kind = TraceKindRequest
		q := &rec.Request
		q.Session = r.Uvarint()
		q.ArrivalNS = r.Uvarint()
		q.ID = string(r.Bytes(maxTraceString))
		if r.Err() != nil {
			return rec, 0, r.Err()
		}
		block := r.Rest()
		evs, n, err := trace.DecodeBlock(block, bitmap.MaxNodes, maxTraceBatch, nil)
		if err != nil {
			return rec, 0, err
		}
		if len(evs) == 0 {
			return rec, 0, codec.ErrCount
		}
		q.Events = evs
		return rec, len(data) - len(block) + n, nil
	}
	return rec, 0, errTraceKind
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
	r := codec.NewReader(data[len(traceMagic):])
	count := r.Count(math.MaxInt, minTraceRecordBytes)
	if r.Err() != nil {
		return nil, r.Err()
	}
	rest := r.Rest()

	recs := make([]TraceRecord, 0, count)
	var sessions []int // nodes per declared seq
	var lastArrival uint64
	for i := 0; i < count; i++ {
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
				if int(ev.PID) >= nodes || int(ev.Dir) >= nodes ||
					uint64(ev.InvReaders)&^full != 0 || uint64(ev.FutureReaders)&^full != 0 ||
					(ev.HasPrev && int(ev.PrevPID) >= nodes) {
					return nil, trace.ErrRange
				}
			}
		}
		recs = append(recs, rec)
	}
	if len(rest) != 0 {
		return nil, codec.ErrTrailing
	}
	return recs, nil
}
