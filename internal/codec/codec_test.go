package codec

import (
	"bytes"
	"errors"
	"testing"
)

// TestReader walks the reader's failure modes and its sticky error: each
// case reads a fixed sequence and checks the error Done reports.
func TestReader(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
		want error
	}{
		{"uvarints", []byte{0x05, 0xac, 0x02}, func(r *Reader) {
			if a, b := r.Uvarint(), r.Uvarint(); a != 5 || b != 300 {
				t.Errorf("uvarints read %d, %d; want 5, 300", a, b)
			}
		}, nil},
		{"truncated", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"empty", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"non-minimal", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, ErrNonMinimal},
		{"booleans", []byte{0, 1}, func(r *Reader) {
			if r.Bool() || !r.Bool() {
				t.Error("booleans 0, 1 misread")
			}
		}, nil},
		{"boolean of 2", []byte{2}, func(r *Reader) { r.Bool() }, ErrBool},
		{"count at limit", []byte{3, 0, 0, 0, 0, 0, 0}, func(r *Reader) {
			if n := r.Count(3, 2); n != 3 {
				t.Errorf("count %d, want 3", n)
			}
			for i := 0; i < 6; i++ {
				r.Uvarint()
			}
		}, nil},
		{"count over limit", []byte{4, 0, 0, 0, 0}, func(r *Reader) { r.Count(3, 1) }, ErrCount},
		{"count over input", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(10, 2) }, ErrCount},
		{"bytes", []byte{2, 'h', 'i'}, func(r *Reader) {
			if b := r.Bytes(2); string(b) != "hi" {
				t.Errorf("bytes %q, want %q", b, "hi")
			}
		}, nil},
		{"bytes over maximum", []byte{3, 'a', 'b', 'c'}, func(r *Reader) { r.Bytes(2) }, ErrCount},
		{"truncated bytes", []byte{3, 'a', 'b'}, func(r *Reader) { r.Bytes(8) }, ErrTruncated},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.Uvarint() }, ErrTrailing},
		{"failure sticks", []byte{0x81, 0x00, 0x05}, func(r *Reader) {
			r.Uvarint()
			if v, ok := r.Uvarint(), r.Bool(); v != 0 || ok {
				t.Errorf("reads after a failure returned %d, %v; want zeros", v, ok)
			}
			if n := r.Count(10, 1); n != 0 {
				t.Errorf("count after a failure %d, want 0", n)
			}
			if b := r.Bytes(10); b != nil {
				t.Errorf("bytes after a failure %q, want nil", b)
			}
			if !bytes.Equal(r.Rest(), []byte{0x81, 0x00, 0x05}) {
				t.Errorf("a failed read consumed input: rest %x", r.Rest())
			}
		}, ErrNonMinimal},
	}
	for _, tc := range cases {
		r := NewReader(tc.data)
		tc.read(&r)
		if err := r.Done(); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: Done() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestUvarintErr(t *testing.T) {
	if UvarintErr(0) != ErrTruncated || UvarintErr(2) != ErrNonMinimal {
		t.Fatal("UvarintErr maps consumed bytes to the wrong error")
	}
}
