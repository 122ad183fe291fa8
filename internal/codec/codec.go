// Package codec is the canonical core of the repo's four binary formats:
// COHSNAP1 engine snapshots (internal/eval, with the serving layer's Extra
// section in internal/serve), COHWIRE1 event batches and replies
// (internal/serve), COHTRACE1 incident recordings (internal/traffic) and
// COHPRED2 trace files (internal/trace). It holds the minimal-length
// uvarint kernels every one of them encodes and decodes with, the error
// values they share, and Reader, the bounded sticky-error reader their
// cold-path decoders are written with. The event block that COHWIRE1,
// COHTRACE1 and COHPRED2 all carry lives in internal/trace.
//
// Every format admits exactly one encoding per value, so each decoder is
// canonical: Encode(Decode(b)) == b for every accepted input b.
package codec

import "errors"

// The decode errors every format shares. They are static values, so the
// hot-path decoders can return them without formatting; callers wrap
// them with the format and the field when they want context.
var (
	ErrTruncated  = errors.New("codec: input truncated")
	ErrNonMinimal = errors.New("codec: non-minimal varint")
	ErrCount      = errors.New("codec: count or length exceeds its limit or the input")
	ErrBool       = errors.New("codec: boolean word is neither 0 nor 1")
	ErrTrailing   = errors.New("codec: trailing bytes")
)

// UvarintErr is the error for a failed Uvarint read that consumed n
// bytes: none means truncation, some a non-minimal encoding.
//
//predlint:hotpath
func UvarintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return ErrNonMinimal
}

// Reader decodes a canonical encoding front to back. The first failure
// sticks: every later read returns zero and Err reports it, so a decoder
// can read a whole group of fields and check once. Counts and lengths are
// bounded before the caller allocates for them.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the failure that stuck, if any.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread input.
func (r *Reader) Rest() []byte { return r.b }

// Uvarint reads one canonical uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, ok := Uvarint(r.b)
	if !ok {
		r.err = UvarintErr(n)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bool reads a canonical boolean: only 0 and 1 are accepted, since any
// other value would re-encode differently than it was read.
func (r *Reader) Bool() bool {
	v := r.Uvarint() // 0 after a failure
	if v > 1 {
		r.err = ErrBool
	}
	return v == 1
}

// Count reads the count of a run of items that each take at least size
// bytes. A count above limit, or one the unread input cannot hold, fails
// with ErrCount and reads as 0, so the caller may allocate for the count
// it gets.
func (r *Reader) Count(limit, size int) int {
	v := r.Uvarint() // 0 after a failure
	if v > uint64(limit) || v > uint64(len(r.b)/size) {
		r.err = ErrCount
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string of at most limit bytes. The
// result aliases the input; a caller that keeps it copies it.
func (r *Reader) Bytes(limit int) []byte {
	n := r.Uvarint()
	switch {
	case r.err != nil:
		return nil
	case n > uint64(limit):
		r.err = ErrCount
		return nil
	case n > uint64(len(r.b)):
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Done ends the decode: it returns the failure that stuck, or
// ErrTrailing if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return ErrTrailing
	}
	return r.err
}
