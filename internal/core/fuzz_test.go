package core

import (
	"testing"
)

// FuzzParseScheme asserts the parser never panics and that anything it
// accepts round-trips through FullString.
func FuzzParseScheme(f *testing.F) {
	for _, seed := range []string{
		"last()1", "inter(pid+pc8)2[forwarded]", "union(dir+add14)4",
		"pas(pid+add4)2[ordered]", "sticky(add8)1", "last(pid+mem8)",
		"union()", "bogus", "inter(pid+pid)2", "last(pc999999999999)1",
		"inter(pid)2[", "last(add-1)1", "pas(pid)9",
		"last(pid+pc62+add4)1", "last(pc9223372036854775807+add2)1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseScheme(input)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseScheme(%q) returned invalid scheme: %v", input, err)
		}
		// Every accepted width fits a key: on a one-node machine, where
		// pid and dir take no bits, the index is at most MaxKeyBits wide.
		if b := s.Index.Bits(Machine{Nodes: 1, LineBytes: 64}); b < 0 || b > MaxKeyBits {
			t.Fatalf("ParseScheme(%q) accepted a %d-bit index", input, b)
		}
		again, err := ParseScheme(s.FullString())
		if err != nil {
			t.Fatalf("round-trip parse of %q failed: %v", s.FullString(), err)
		}
		if again != s {
			t.Fatalf("round trip changed scheme: %+v vs %+v", s, again)
		}
	})
}

// FuzzParseIndexSpec asserts the index parser never panics and accepted
// specs round-trip.
func FuzzParseIndexSpec(f *testing.F) {
	for _, seed := range []string{
		"", "pid", "pid+pc8+dir+add6", "mem8", "pc0", "add+pid", "pid+pid",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseIndexSpec(input)
		if err != nil {
			return
		}
		if spec.PCBits < 0 || spec.AddrBits < 0 {
			t.Fatalf("accepted negative widths: %+v", spec)
		}
		again, err := ParseIndexSpec(spec.String())
		if err != nil || again != spec {
			t.Fatalf("round trip failed for %q → %+v", input, spec)
		}
	})
}
