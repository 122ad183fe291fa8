package codec

import "math/bits"

// The canonical uvarint kernels. Every format admits exactly one
// encoding per value — minimal-length uvarints only — which is what makes
// Encode(Decode(b)) == b provable for every accepted input.
//
// The kernels are hot paths: the serving layer decodes one uvarint per
// event field at target rates of a million events per second, so they
// must not allocate, box, or format.

// maxUvarintLen is the longest encoding of a 64-bit value.
const maxUvarintLen = 10

// Uvarint decodes one canonical uvarint from the front of b. It returns
// the value, the number of bytes consumed, and whether the encoding was
// acceptable: n == 0 means b is truncated (or overflows 64 bits), and
// ok == false with n > 0 means the encoding was valid but non-minimal —
// the value would re-encode shorter than it arrived.
//
// The whole decoder fits the inliner's budget, so the one-byte case that
// most event fields take costs a length test and a compare at the call
// site. Longer encodings are decoded in one pass: a multi-byte encoding
// is minimal exactly when its last byte is non-zero (a zero final group
// adds no bits, so the value would re-encode a byte shorter).
//
//predlint:hotpath
func Uvarint(b []byte) (v uint64, n int, ok bool) {
	if len(b) != 0 && b[0] < 0x80 {
		return uint64(b[0]), 1, true
	}
	var s uint
	for i, c := range b {
		// The tenth byte carries bit 63 only: anything above 1 there,
		// continuation bit included, overflows 64 bits.
		if i == maxUvarintLen-1 && c > 1 {
			return 0, 0, false
		}
		if c < 0x80 {
			return v | uint64(c)<<s, i + 1, c != 0
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0, false
}

// UvarintLen returns the number of bytes the canonical (minimal) encoding
// of v occupies: one per started group of seven significant bits.
//
//predlint:hotpath
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// AppendUvarint appends the canonical encoding of v to dst — the one
// appender behind every format Uvarint reads.
//
//predlint:hotpath
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// PutUvarint writes the canonical encoding of v into b at index i and
// returns the index just past it. b must hold UvarintLen(v) bytes from i:
// encoders that size a frame once write its fields this way.
//
//predlint:hotpath
func PutUvarint(b []byte, i int, v uint64) int {
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}
