package serve

// COHWIRE1 — the service's binary wire protocol for event posts and
// prediction replies, negotiated per request via Content-Type / Accept
// ("application/x-cohwire"); the JSON API remains the debugging and
// compatibility surface. The format follows the COHSNAP1 snapshot codec's
// discipline exactly:
//
//	frame := magic kind payload
//	magic := "COHWIRE1"                     (8 bytes)
//	kind  := uvarint                        (1 = event batch, 2 = reply)
//	batch := count:uvarint event*count
//	event := pid pc dir addr inv_readers has_prev [prev_pid prev_pc] future_readers
//	reply := count:uvarint prediction*count
//
// Every integer is a minimal-length uvarint (eval.Uvarint rejects any
// other form), has_prev is a canonical boolean (only 0 or 1), the
// prev_pid/prev_pc fields are present exactly when has_prev is 1, and
// trailing bytes are rejected. One encoding per value means the decoders
// are canonical: Encode(Decode(b)) == b for every accepted frame b, the
// property the round-trip fuzz targets pin.
//
// The codec kernels are the serving hot path — one frame per HTTP request,
// one field group per event at a target of a million events per second —
// so they are //predlint:hotpath: no fmt (errors are static sentinels; the
// HTTP layer adds request context), no interface boxing, and one pass over
// the frame. A decoder bounds the count against the input, grows its
// destination once to that count, and reads each field at a local index
// through eval.Uvarint, whose one-byte case inlines. An encoder sizes the
// frame, reserves that capacity once, and writes each field by index.
// Decoders into a pooled destination and encoders into a pooled buffer
// allocate nothing once the buffers have warmed up.

import (
	"errors"
	"slices"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/eval"
	"cohpredict/internal/trace"
)

// ContentTypeWire is the negotiated media type of a COHWIRE1 frame.
const ContentTypeWire = "application/x-cohwire"

// wireMagic identifies the wire format (and its version).
const wireMagic = "COHWIRE1"

// Frame kinds. A batch frame fed to the reply decoder (or vice versa) is
// rejected, so a misrouted body fails loudly instead of mis-decoding.
const (
	wireKindBatch = 1
	wireKindReply = 2
)

// wireHeaderLen is the length of a frame's header: the magic, then the
// kind, which encodes in one byte. The count follows it.
const wireHeaderLen = len(wireMagic) + 1

// MaxWireReplyBytes is the length of the largest legal reply frame:
// MaxBatchEvents predictions of up to ten bytes each, behind the header
// and a three-byte count.
const MaxWireReplyBytes = wireHeaderLen + 3 + 10*MaxBatchEvents

// minWireEventBytes is the smallest possible encoded event (seven
// single-byte uvarints: pid pc dir addr inv has_prev future); the batch
// decoder bounds the declared count against it before any allocation.
const minWireEventBytes = 7

// Static decode errors. The kernels cannot call fmt (hotpath), so each
// failure mode is a sentinel; handlers wrap them with request context.
var (
	errWireMagic      = errors.New("serve: wire frame magic missing")
	errWireKind       = errors.New("serve: wire frame kind unknown")
	errWireTruncated  = errors.New("serve: wire frame truncated")
	errWireNonMinimal = errors.New("serve: wire frame has a non-minimal varint")
	errWireCount      = errors.New("serve: wire frame count exceeds input or batch limit")
	errWireBool       = errors.New("serve: wire frame has a non-boolean has_prev word")
	errWireTrailing   = errors.New("serve: wire frame has trailing bytes")
	errWireRange      = errors.New("serve: wire event field out of range for the session's machine")
	errWireNodes      = errors.New("serve: wire decoder node count out of range")
)

// wireUvarintErr is the sentinel for a failed eval.Uvarint read that
// consumed n bytes: none means truncation, some a non-minimal encoding.
//
//predlint:hotpath
func wireUvarintErr(n int) error {
	if n == 0 {
		return errWireTruncated
	}
	return errWireNonMinimal
}

// wireBody checks a frame's magic and kind and reads its count, returning
// the count and the index of the first item.
//
//predlint:hotpath
func wireBody(data []byte, kind uint64) (count uint64, i int, err error) {
	if !IsWireFrame(data) {
		return 0, 0, errWireMagic
	}
	k, n, ok := eval.Uvarint(data[len(wireMagic):])
	if !ok {
		return 0, 0, wireUvarintErr(n)
	}
	if k != kind {
		return 0, 0, errWireKind
	}
	i = len(wireMagic) + n
	if count, n, ok = eval.Uvarint(data[i:]); !ok {
		return 0, 0, wireUvarintErr(n)
	}
	return count, i + n, nil
}

// growWireFrame extends dst by a whole frame of the given kind and count
// whose items take body bytes — the one capacity reservation an encoder
// makes — writes the header and count, and returns the extended slice
// with the index of the first item.
//
//predlint:hotpath
func growWireFrame(dst []byte, kind byte, count, body int) ([]byte, int) {
	i := len(dst)
	size := wireHeaderLen + eval.UvarintLen(uint64(count)) + body
	dst = slices.Grow(dst, size)[:i+size]
	i += copy(dst[i:], wireMagic)
	dst[i] = kind
	return dst, eval.PutUvarint(dst, i+1, uint64(count))
}

// AppendWireBatch appends the COHWIRE1 batch frame for evs to dst and
// returns the extended slice. It is the canonical encoder the round-trip
// proofs (and the server-side tests) re-encode with. It spells the event
// layout out in full, as AppendWireEvents does — a call per field group
// would cost more than the fields themselves — and TestWireBatchRoundTrip
// holds the two to the same bytes.
//
//predlint:hotpath
func AppendWireBatch(dst []byte, evs []trace.Event) []byte {
	body := 0
	for i := range evs {
		ev := &evs[i]
		body += eval.UvarintLen(uint64(ev.PID)) + eval.UvarintLen(ev.PC) + eval.UvarintLen(uint64(ev.Dir)) +
			eval.UvarintLen(ev.Addr) + eval.UvarintLen(uint64(ev.InvReaders)) + 1 +
			eval.UvarintLen(uint64(ev.FutureReaders))
		if ev.HasPrev {
			body += eval.UvarintLen(uint64(ev.PrevPID)) + eval.UvarintLen(ev.PrevPC)
		}
	}
	dst, at := growWireFrame(dst, wireKindBatch, len(evs), body)
	for i := range evs {
		ev := &evs[i]
		at = eval.PutUvarint(dst, at, uint64(ev.PID))
		at = eval.PutUvarint(dst, at, ev.PC)
		at = eval.PutUvarint(dst, at, uint64(ev.Dir))
		at = eval.PutUvarint(dst, at, ev.Addr)
		at = eval.PutUvarint(dst, at, uint64(ev.InvReaders))
		if ev.HasPrev {
			dst[at] = 1
			at = eval.PutUvarint(dst, at+1, uint64(ev.PrevPID))
			at = eval.PutUvarint(dst, at, ev.PrevPC)
		} else {
			dst[at] = 0
			at++
		}
		at = eval.PutUvarint(dst, at, uint64(ev.FutureReaders))
	}
	return dst
}

// AppendWireEvents appends the batch frame for API-form events: the
// client-side encoder, with AppendWireBatch's layout. Appending to nil
// allocates the frame once, at its exact size.
//
//predlint:hotpath
func AppendWireEvents(dst []byte, evs []EventRequest) []byte {
	body := 0
	for i := range evs {
		r := &evs[i]
		body += eval.UvarintLen(uint64(r.PID)) + eval.UvarintLen(r.PC) + eval.UvarintLen(uint64(r.Dir)) +
			eval.UvarintLen(r.Addr) + eval.UvarintLen(r.InvReaders) + 1 + eval.UvarintLen(r.FutureReaders)
		if r.HasPrev {
			body += eval.UvarintLen(uint64(r.PrevPID)) + eval.UvarintLen(r.PrevPC)
		}
	}
	dst, at := growWireFrame(dst, wireKindBatch, len(evs), body)
	for i := range evs {
		r := &evs[i]
		at = eval.PutUvarint(dst, at, uint64(r.PID))
		at = eval.PutUvarint(dst, at, r.PC)
		at = eval.PutUvarint(dst, at, uint64(r.Dir))
		at = eval.PutUvarint(dst, at, r.Addr)
		at = eval.PutUvarint(dst, at, r.InvReaders)
		if r.HasPrev {
			dst[at] = 1
			at = eval.PutUvarint(dst, at+1, uint64(r.PrevPID))
			at = eval.PutUvarint(dst, at, r.PrevPC)
		} else {
			dst[at] = 0
			at++
		}
		at = eval.PutUvarint(dst, at, r.FutureReaders)
	}
	return dst
}

// DecodeWireBatchInto decodes a COHWIRE1 batch frame for an n-node
// machine, appending the validated events to dst (pass a pooled slice at
// length 0 to decode without allocating once its capacity has warmed up)
// and returning the extended slice; on error it returns dst at its
// original length. Validation matches the JSON decoder exactly: in-range
// pids and dirs, bitmaps confined to the machine, prev fields only under
// has_prev. The decoder never panics, and accepts only the canonical form
// — AppendWireBatch over the result reproduces the input byte for byte.
//
//predlint:hotpath
func DecodeWireBatchInto(data []byte, nodes int, dst []trace.Event) ([]trace.Event, error) {
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		return dst, errWireNodes
	}
	count, i, err := wireBody(data, wireKindBatch)
	if err != nil {
		return dst, err
	}
	if count > MaxBatchEvents || count > uint64(len(data)-i)/minWireEventBytes {
		return dst, errWireCount
	}
	full, nn := uint64(bitmap.Full(nodes)), uint64(nodes)
	base := len(dst)
	dst = slices.Grow(dst, int(count))
	evs := dst[base : base+int(count)]
	for k := range evs {
		// Each field is read where it is used, so a field that fails to
		// decode wins over every check on the fields after it.
		pid, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		pc, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		dir, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		addr, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		inv, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		hasPrev, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		if hasPrev > 1 {
			return dst, errWireBool
		}
		var prevPID, prevPC uint64
		if hasPrev == 1 {
			if prevPID, n, ok = eval.Uvarint(data[i:]); !ok {
				return dst, wireUvarintErr(n)
			}
			i += n
			if prevPC, n, ok = eval.Uvarint(data[i:]); !ok {
				return dst, wireUvarintErr(n)
			}
			i += n
			if prevPID >= nn {
				return dst, errWireRange
			}
		}
		future, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		i += n
		if pid >= nn || dir >= nn || inv&^full != 0 || future&^full != 0 {
			return dst, errWireRange
		}
		evs[k] = trace.Event{
			PID: int(pid), PC: pc, Dir: int(dir), Addr: addr,
			InvReaders: bitmap.Bitmap(inv),
			HasPrev:    hasPrev == 1, PrevPID: int(prevPID), PrevPC: prevPC,
			FutureReaders: bitmap.Bitmap(future),
		}
	}
	if i != len(data) {
		return dst, errWireTrailing
	}
	return dst[:base+len(evs)], nil
}

// DecodeWireBatch is DecodeWireBatchInto with a fresh destination (the
// convenience form tests and fuzz targets use).
func DecodeWireBatch(data []byte, nodes int) ([]trace.Event, error) {
	evs, err := DecodeWireBatchInto(data, nodes, nil)
	if err != nil {
		return nil, err
	}
	if evs == nil {
		evs = []trace.Event{}
	}
	return evs, nil
}

// AppendWireReply appends the COHWIRE1 reply frame carrying one predicted
// sharing bitmap per event, in request order. Appending to nil allocates
// the frame once, at its exact size.
//
//predlint:hotpath
func AppendWireReply(dst []byte, preds []bitmap.Bitmap) []byte {
	body := 0
	for _, p := range preds {
		body += eval.UvarintLen(uint64(p))
	}
	dst, at := growWireFrame(dst, wireKindReply, len(preds), body)
	for _, p := range preds {
		at = eval.PutUvarint(dst, at, uint64(p))
	}
	return dst
}

// DecodeWireReplyInto decodes a reply frame, appending the predictions to
// dst — bitmaps on the server, the client's plain []uint64 — and
// returning dst at its original length on error. Like the batch decoder
// it is total (never panics) and canonical (AppendWireReply over the
// result reproduces the input exactly).
//
//predlint:hotpath
func DecodeWireReplyInto[T ~uint64](data []byte, dst []T) ([]T, error) {
	count, i, err := wireBody(data, wireKindReply)
	if err != nil {
		return dst, err
	}
	if count > MaxBatchEvents || count > uint64(len(data)-i) {
		return dst, errWireCount
	}
	base := len(dst)
	dst = slices.Grow(dst, int(count))
	preds := dst[base : base+int(count)]
	for k := range preds {
		v, n, ok := eval.Uvarint(data[i:])
		if !ok {
			return dst, wireUvarintErr(n)
		}
		preds[k] = T(v)
		i += n
	}
	if i != len(data) {
		return dst, errWireTrailing
	}
	return dst[:base+len(preds)], nil
}

// DecodeWireReply is DecodeWireReplyInto with a fresh destination.
func DecodeWireReply(data []byte) ([]bitmap.Bitmap, error) {
	preds, err := DecodeWireReplyInto(data, []bitmap.Bitmap(nil))
	if err != nil {
		return nil, err
	}
	if preds == nil {
		preds = []bitmap.Bitmap{}
	}
	return preds, nil
}

// IsWireFrame reports whether data begins with the COHWIRE1 magic — the
// cheap sniff clients use to pick a reply decoder.
func IsWireFrame(data []byte) bool {
	return len(data) >= len(wireMagic) && string(data[:len(wireMagic)]) == wireMagic
}
