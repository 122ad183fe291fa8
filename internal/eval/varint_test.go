package eval

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// refUvarint is the two-pass decoder Uvarint replaced, kept as its
// oracle: binary.Uvarint, then a re-measure of the value to reject a
// non-minimal encoding.
func refUvarint(b []byte) (v uint64, n int, ok bool) {
	v, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, false
	}
	if n != refUvarintLen(v) {
		return v, n, false
	}
	return v, n, true
}

// refUvarintLen is the loop UvarintLen replaced.
func refUvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func checkUvarint(t *testing.T, b []byte) {
	v, n, ok := Uvarint(b)
	rv, rn, rok := refUvarint(b)
	if v != rv || n != rn || ok != rok {
		t.Fatalf("Uvarint(%x) = (%d, %d, %v), reference (%d, %d, %v)", b, v, n, ok, rv, rn, rok)
	}
}

// TestUvarintMatchesReference pins the one-pass decoder to the two-pass
// one over every 1-, 2- and 3-byte input (each also with a trailing byte,
// and the empty input), and over the 10- and 11-byte boundaries where
// 64-bit overflow and truncation are decided.
func TestUvarintMatchesReference(t *testing.T) {
	checkUvarint(t, nil)
	buf := make([]byte, 4)
	for x := 0; x < 1<<24; x++ {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), 0x55
		if x < 1<<8 {
			checkUvarint(t, buf[:1])
		}
		if x < 1<<16 {
			checkUvarint(t, buf[:2])
		}
		checkUvarint(t, buf[:3])
		checkUvarint(t, buf)
	}

	// Nine continuation bytes, then every possible tenth (and eleventh)
	// byte: the tenth may carry only bit 63.
	long := bytes.Repeat([]byte{0xff}, 11)
	for _, lead := range []byte{0x80, 0xff} {
		for i := 0; i < 9; i++ {
			long[i] = lead
		}
		checkUvarint(t, long[:9]) // truncated
		for last := 0; last < 256; last++ {
			long[9] = byte(last)
			checkUvarint(t, long[:10])
			for next := 0; next < 256; next++ {
				long[10] = byte(next)
				checkUvarint(t, long[:11])
			}
		}
	}
	for _, v := range []uint64{1 << 63, 1<<63 - 1, math.MaxUint64, 1 << 56, 1<<56 - 1} {
		enc := binary.AppendUvarint(nil, v)
		checkUvarint(t, enc)
		checkUvarint(t, append(enc, 0))
	}
}

// TestUvarintLenAndWriters checks UvarintLen against the loop it replaced
// and both writers against binary.AppendUvarint at every length boundary.
func TestUvarintLenAndWriters(t *testing.T) {
	var vals []uint64
	for k := 0; k < 64; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	vals = append(vals, math.MaxUint64)
	for _, v := range vals {
		want := binary.AppendUvarint([]byte{0xaa}, v)
		if got := UvarintLen(v); got != refUvarintLen(v) || got != len(want)-1 {
			t.Fatalf("UvarintLen(%d) = %d, want %d", v, got, refUvarintLen(v))
		}
		if got := AppendUvarint([]byte{0xaa}, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendUvarint(%d) = %x, want %x", v, got, want)
		}
		put := make([]byte, len(want))
		put[0] = 0xaa
		if end := PutUvarint(put, 1, v); end != len(want) || !bytes.Equal(put, want) {
			t.Fatalf("PutUvarint(%d) = %x ending at %d, want %x", v, put, end, want)
		}
	}
}
