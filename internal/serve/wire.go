package serve

// COHWIRE1 — the service's binary wire protocol for event posts and
// prediction replies, negotiated per request via Content-Type / Accept
// ("application/x-cohwire"); the JSON API remains the debugging and
// compatibility surface. The format follows internal/codec's discipline:
//
//	frame := magic kind payload
//	magic := "COHWIRE1"                     (8 bytes)
//	kind  := uvarint                        (1 = event batch, 2 = reply)
//	batch := block                          (trace's event block)
//	reply := count:uvarint prediction*count
//
// A batch is the event block internal/trace defines for every format
// that carries events (count, then each event's pid pc dir addr
// inv_readers has_prev [prev_pid prev_pc] future_readers). Every integer
// is a minimal-length uvarint (codec.Uvarint rejects any other form),
// has_prev is a canonical boolean, and trailing bytes are rejected. One
// encoding per value means the decoders are canonical: Encode(Decode(b))
// == b for every accepted frame b, the property the round-trip fuzz
// targets pin.
//
// The codec kernels are the serving hot path — one frame per HTTP request,
// one field group per event at a target of a million events per second —
// so they are //predlint:hotpath: no fmt (errors are static values; the
// HTTP layer adds request context), no interface boxing, and one pass over
// the frame. A decoder bounds the count against the input, grows its
// destination once to that count, and reads each field at a local index
// through codec.Uvarint, whose one-byte case inlines. An encoder sizes the
// frame, reserves that capacity once, and writes each field by index.
// Decoders into a pooled destination and encoders into a pooled buffer
// allocate nothing once the buffers have warmed up.

import (
	"errors"
	"slices"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
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

// Decode errors of the frame header. The payload's errors are codec's
// and trace.ErrRange.
var (
	errWireMagic = errors.New("serve: wire frame magic missing")
	errWireKind  = errors.New("serve: wire frame kind unknown")
)

// wireBody checks a frame's magic and kind, returning the index of the
// payload.
//
//predlint:hotpath
func wireBody(data []byte, kind uint64) (int, error) {
	if !IsWireFrame(data) {
		return 0, errWireMagic
	}
	k, n, ok := codec.Uvarint(data[len(wireMagic):])
	if !ok {
		return 0, codec.UvarintErr(n)
	}
	if k != kind {
		return 0, errWireKind
	}
	return len(wireMagic) + n, nil
}

// growWireFrame extends dst by a whole frame of the given kind whose
// payload takes size bytes — the one capacity reservation an encoder
// makes — writes the header, and returns the extended slice with the
// index of the payload.
//
//predlint:hotpath
func growWireFrame(dst []byte, kind byte, size int) ([]byte, int) {
	i := len(dst)
	dst = slices.Grow(dst, wireHeaderLen+size)[:i+wireHeaderLen+size]
	i += copy(dst[i:], wireMagic)
	dst[i] = kind
	return dst, i + 1
}

// AppendWireBatch appends the COHWIRE1 batch frame for evs to dst and
// returns the extended slice: the client's encoder, and the canonical one
// the round-trip proofs re-encode with. Appending to nil allocates the
// frame once, at its exact size.
//
//predlint:hotpath
func AppendWireBatch(dst []byte, evs []trace.Event) []byte {
	dst, at := growWireFrame(dst, wireKindBatch, trace.BlockLen(evs))
	trace.PutBlock(dst, at, evs)
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
		return dst, trace.ErrRange
	}
	i, err := wireBody(data, wireKindBatch)
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst, n, err := trace.DecodeBlock(data[i:], nodes, MaxBatchEvents, dst)
	if err != nil {
		return dst, err
	}
	if i+n != len(data) {
		return dst[:base], codec.ErrTrailing
	}
	return dst, nil
}

// AppendWireReply appends the COHWIRE1 reply frame carrying one predicted
// sharing bitmap per event, in request order. Appending to nil allocates
// the frame once, at its exact size.
//
//predlint:hotpath
func AppendWireReply(dst []byte, preds []bitmap.Bitmap) []byte {
	size := codec.UvarintLen(uint64(len(preds)))
	for _, p := range preds {
		size += codec.UvarintLen(uint64(p))
	}
	dst, at := growWireFrame(dst, wireKindReply, size)
	at = codec.PutUvarint(dst, at, uint64(len(preds)))
	for _, p := range preds {
		at = codec.PutUvarint(dst, at, uint64(p))
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
	i, err := wireBody(data, wireKindReply)
	if err != nil {
		return dst, err
	}
	count, n, ok := codec.Uvarint(data[i:])
	if !ok {
		return dst, codec.UvarintErr(n)
	}
	i += n
	if count > MaxBatchEvents || count > uint64(len(data)-i) {
		return dst, codec.ErrCount
	}
	base := len(dst)
	dst = slices.Grow(dst, int(count))
	preds := dst[base : base+int(count)]
	for k := range preds {
		v, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, codec.UvarintErr(n)
		}
		preds[k] = T(v)
		i += n
	}
	if i != len(data) {
		return dst, codec.ErrTrailing
	}
	return dst[:base+len(preds)], nil
}

// IsWireFrame reports whether data begins with the COHWIRE1 magic — the
// cheap sniff clients use to pick a reply decoder.
func IsWireFrame(data []byte) bool {
	return len(data) >= len(wireMagic) && string(data[:len(wireMagic)]) == wireMagic
}
