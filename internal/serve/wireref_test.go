package serve

import (
	"encoding/binary"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
	"cohpredict/internal/trace"
)

// FuzzWireDecodeDifferential pins the single-pass decoders to the two-pass
// oracles below: for any bytes and node count, the batch decoders and the
// reply decoders each make the same accept/reject decision, return the
// same sentinel error, and decode the same events or predictions. Its
// committed corpus holds the FuzzDecodeWireBatch, FuzzDecodeWireReply and
// FuzzWireJSONCross corpora plus the varint boundaries (a 10-byte maximum,
// an 11-byte overflow, 0x80 0x00 and 0x80 0x01) and two error-precedence
// frames; the literal seeds those targets add in code are added here.
func FuzzWireDecodeDifferential(f *testing.F) {
	f.Add([]byte("COHWIRE1"), 16)
	f.Add([]byte("COHWIRE1\x01\x80\x00"), 16)
	f.Add([]byte("COHWIRE1\x02\x00"), 16)
	f.Add([]byte("COHWIRE1\x01\xff\xff\x03"), 16)
	f.Add([]byte("no magic at all"), 8)
	f.Add([]byte{}, 64)
	f.Add([]byte("COHWIRE1\x01\x01\x01\x14\x02\x40\x00\x01\x03\x15\x06"), -1)
	f.Add([]byte("COHWIRE1\x02\x02\x05"), 16)
	f.Add([]byte("COHWIRE1\x02\x01\x80\x01"), 16)
	f.Add([]byte("COHWIRE1\x01\x00"), 16)
	f.Add([]byte("COHWIRE1\x01\x01\x00\x00\x00\x00\x00\x00\x00"), 1)
	f.Fuzz(func(t *testing.T, data []byte, nodes int) {
		evs, err := DecodeWireBatchInto(data, nodes, nil)
		want, wantErr := refDecodeWireBatchInto(data, nodes, nil)
		if err != wantErr {
			t.Fatalf("batch decoder: err = %v, reference %v", err, wantErr)
		}
		if err == nil {
			if len(evs) != len(want) {
				t.Fatalf("batch decoder: %d events, reference %d", len(evs), len(want))
			}
			for i := range evs {
				if evs[i] != want[i] {
					t.Fatalf("batch event %d: %+v, reference %+v", i, evs[i], want[i])
				}
			}
		}

		preds, err := DecodeWireReplyInto(data, []bitmap.Bitmap(nil))
		wantPreds, wantErr := refDecodeWireReplyInto(data, nil)
		if err != wantErr {
			t.Fatalf("reply decoder: err = %v, reference %v", err, wantErr)
		}
		if err == nil {
			if len(preds) != len(wantPreds) {
				t.Fatalf("reply decoder: %d predictions, reference %d", len(preds), len(wantPreds))
			}
			for i := range preds {
				if preds[i] != wantPreds[i] {
					t.Fatalf("prediction %d: %#x, reference %#x", i, preds[i], wantPreds[i])
				}
			}
		}
	})
}

// The two-pass COHWIRE1 decoders the single-pass kernels replaced, kept
// verbatim as the oracles FuzzWireDecodeDifferential compares against:
// a sticky-error reader whose every field read calls binary.Uvarint and
// then re-measures the value to reject a non-minimal encoding.

// minWireEventBytes is the smallest encoded event: seven one-byte
// uvarints.
const minWireEventBytes = 7

// refUvarint is the canonical uvarint decoder as it was before the
// one-pass kernel (codec.Uvarint's old body).
func refUvarint(b []byte) (v uint64, n int, ok bool) {
	v, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, false
	}
	m := 1
	for x := v; x >= 0x80; x >>= 7 {
		m++
	}
	if n != m {
		return v, n, false
	}
	return v, n, true
}

type refWireReader struct {
	b   []byte
	err error
}

func (r *refWireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, ok := refUvarint(r.b)
	switch {
	case n == 0:
		r.err = codec.ErrTruncated
		return 0
	case !ok:
		r.err = codec.ErrNonMinimal
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *refWireReader) header(kind uint64) bool {
	if len(r.b) < len(wireMagic) || string(r.b[:len(wireMagic)]) != wireMagic {
		r.err = errWireMagic
		return false
	}
	r.b = r.b[len(wireMagic):]
	k := r.uvarint()
	if r.err != nil {
		return false
	}
	if k != kind {
		r.err = errWireKind
		return false
	}
	return true
}

func refDecodeWireBatchInto(data []byte, nodes int, dst []trace.Event) ([]trace.Event, error) {
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		return dst, trace.ErrRange
	}
	full := uint64(bitmap.Full(nodes))
	r := refWireReader{b: data}
	if !r.header(wireKindBatch) {
		return dst, r.err
	}
	n := r.uvarint()
	if r.err != nil {
		return dst, r.err
	}
	if n > MaxBatchEvents || n > uint64(len(r.b))/minWireEventBytes {
		return dst, codec.ErrCount
	}
	for i := uint64(0); i < n; i++ {
		var ev trace.Event
		pid := r.uvarint()
		ev.PC = r.uvarint()
		dir := r.uvarint()
		ev.Addr = r.uvarint()
		inv := r.uvarint()
		hp := r.uvarint()
		if r.err != nil {
			return dst, r.err
		}
		if hp > 1 {
			return dst, codec.ErrBool
		}
		if hp == 1 {
			ev.HasPrev = true
			prevPID := r.uvarint()
			ev.PrevPC = r.uvarint()
			if prevPID >= uint64(nodes) {
				if r.err != nil {
					return dst, r.err
				}
				return dst, trace.ErrRange
			}
			ev.PrevPID = int(prevPID)
		}
		future := r.uvarint()
		if r.err != nil {
			return dst, r.err
		}
		if pid >= uint64(nodes) || dir >= uint64(nodes) || inv&^full != 0 || future&^full != 0 {
			return dst, trace.ErrRange
		}
		ev.PID = int(pid)
		ev.Dir = int(dir)
		ev.InvReaders = bitmap.Bitmap(inv)
		ev.FutureReaders = bitmap.Bitmap(future)
		dst = append(dst, ev)
	}
	if len(r.b) != 0 {
		return dst, codec.ErrTrailing
	}
	return dst, nil
}

func refDecodeWireReplyInto(data []byte, dst []bitmap.Bitmap) ([]bitmap.Bitmap, error) {
	r := refWireReader{b: data}
	if !r.header(wireKindReply) {
		return dst, r.err
	}
	n := r.uvarint()
	if r.err != nil {
		return dst, r.err
	}
	if n > MaxBatchEvents || n > uint64(len(r.b)) {
		return dst, codec.ErrCount
	}
	for i := uint64(0); i < n; i++ {
		p := r.uvarint()
		if r.err != nil {
			return dst, r.err
		}
		dst = append(dst, bitmap.Bitmap(p))
	}
	if len(r.b) != 0 {
		return dst, codec.ErrTrailing
	}
	return dst, nil
}
