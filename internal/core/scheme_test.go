package core

import (
	"math"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) Scheme {
	t.Helper()
	sc, err := ParseScheme(s)
	if err != nil {
		t.Fatalf("ParseScheme(%q): %v", s, err)
	}
	return sc
}

func TestParseScheme(t *testing.T) {
	s := mustParse(t, "inter(pid+pc8)2[forwarded]")
	if s.Fn != Inter || !s.Index.UsePID || s.Index.PCBits != 8 || s.Depth != 2 || s.Update != Forwarded {
		t.Fatalf("parsed = %+v", s)
	}
	s = mustParse(t, "last()1")
	if s.Fn != Last || s.Index != (IndexSpec{}) || s.Depth != 1 || s.Update != Direct {
		t.Fatalf("baseline parsed = %+v", s)
	}
	// Depth defaults to 1 (the paper writes last(pid+mem8) without one).
	s = mustParse(t, "last(pid+mem8)")
	if s.Depth != 1 || s.Index.AddrBits != 8 {
		t.Fatalf("parsed = %+v", s)
	}
	// The paper's occasional "[forward]" shorthand.
	s = mustParse(t, "union(dir+add8)4[forward]")
	if s.Update != Forwarded {
		t.Fatalf("parsed update = %v", s.Update)
	}
}

func TestParseSchemeErrors(t *testing.T) {
	for _, str := range []string{
		"", "inter", "inter(pid", "bogus(pid)2", "inter(pid)9",
		"last(pid)2", "inter(pid)2[bogus]", "inter(pid)2[direct",
		"inter(pid)x",
	} {
		if _, err := ParseScheme(str); err == nil {
			t.Errorf("ParseScheme(%q) accepted", str)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	s := Scheme{Fn: Union, Index: IndexSpec{UseDir: true, AddrBits: 14}, Depth: 4, Update: Direct}
	if got := s.String(); got != "union(dir+add14)4" {
		t.Errorf("String = %q", got)
	}
	if got := s.FullString(); got != "union(dir+add14)4[direct]" {
		t.Errorf("FullString = %q", got)
	}
}

func TestValidate(t *testing.T) {
	valid := Scheme{Fn: Inter, Depth: 2}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
	for _, s := range []Scheme{
		{Fn: Inter, Depth: 0},
		{Fn: Inter, Depth: 5},
		{Fn: Last, Depth: 2},
		{Fn: Function(99), Depth: 1},
		{Fn: Inter, Depth: 2, Update: UpdateMode(9)},
		// Index widths that cannot fit a 64-bit key on any machine.
		{Fn: Last, Depth: 1, Index: IndexSpec{UsePID: true, PCBits: 62, AddrBits: 4}},
		{Fn: Last, Depth: 1, Index: IndexSpec{PCBits: math.MaxInt, AddrBits: 2}},
		{Fn: Last, Depth: 1, Index: IndexSpec{AddrBits: MaxKeyBits + 1}},
		{Fn: Last, Depth: 1, Index: IndexSpec{PCBits: -1}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid scheme %+v accepted", s)
		}
	}
}

// TestValidateOn: the machine-dependent total is checked where a scheme
// meets a machine. 59 pc and addr bits pass Validate and fit a one-node
// machine, but not a 16-node one, whose pid and dir add 8 bits.
func TestValidateOn(t *testing.T) {
	s, err := ParseScheme("last(pid+pc55+dir+add4)1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateOn(Machine{Nodes: 1, LineBytes: 64}); err != nil {
		t.Errorf("59-bit index rejected on a one-node machine: %v", err)
	}
	if err := s.ValidateOn(m16); err == nil {
		t.Error("67-bit index accepted on a 16-node machine")
	}
	widest := Scheme{Fn: Last, Depth: 1, Index: IndexSpec{UsePID: true, PCBits: 55, UseDir: true}}
	if err := widest.ValidateOn(m16); err != nil {
		t.Errorf("63-bit index rejected: %v", err)
	}
	if err := (Scheme{Fn: Last, Depth: 2}).ValidateOn(m16); err == nil {
		t.Error("ValidateOn accepted a scheme Validate rejects")
	}
}

// TestPaperSizeAnchors checks the cost model against sizes the paper
// reports in Tables 7–10.
func TestPaperSizeAnchors(t *testing.T) {
	anchors := []struct {
		scheme string
		want   int
	}{
		{"last()1", 0},                // baseline: "costs no storage"
		{"last(pid+pc8)1", 16},        // Table 7
		{"inter(pid+pc8)2", 17},       // Table 7
		{"last(pid+mem8)", 16},        // Table 7 (Lai & Falsafi)
		{"inter(pid+add6)4", 16},      // Table 8
		{"inter(pid+pc2+add6)4", 18},  // Table 8
		{"inter(pid+add8)4", 18},      // Table 8
		{"inter(pid+pc4+add6)4", 20},  // Table 8
		{"inter(pid+add10)4", 20},     // Table 8
		{"inter(pid+add4)4", 14},      // Table 8
		{"inter(pid+pc6+add6)4", 22},  // Table 8
		{"inter(pid+add8)3", 18},      // Table 8
		{"inter(pid+pc8+add6)4", 24},  // Table 9
		{"union(dir+add14)4", 24},     // Table 10
		{"union(add16)4", 22},         // Table 10
		{"union(dir+add12)4", 22},     // Table 10
		{"union(dir+add2)4", 12},      // Table 10
		{"union(pc2+dir+add6)4", 18},  // Table 10
		{"union(add14)4", 20},         // Table 10
		{"union(pc4+dir)4", 14},       // Table 10
		{"union(pc2+dir+add2)4", 14},  // Table 10
		{"union(pid+dir+add4)4", 18},  // Table 11
		{"union(pid+dir+add2)4", 16},  // Table 11
		{"union(pid+add6)4", 16},      // Table 11
		{"inter(pid+pc10+add4)4", 24}, // Table 9
	}
	for _, a := range anchors {
		s := mustParse(t, a.scheme)
		if got := s.SizeLog2(m16); got != a.want {
			t.Errorf("SizeLog2(%s) = %d, paper says %d", a.scheme, got, a.want)
		}
	}
}

func TestEntryBits(t *testing.T) {
	if got := (Scheme{Fn: Union, Depth: 4}).EntryBits(16); got != 64 {
		t.Errorf("union depth4 entry = %d bits", got)
	}
	if got := (Scheme{Fn: Last, Depth: 1}).EntryBits(16); got != 16 {
		t.Errorf("last entry = %d bits", got)
	}
	// PAs: N histories of depth bits + N tables of 2^depth 2-bit
	// counters. Depth 2, 16 nodes: 32 + 16*4*2 = 160.
	if got := (Scheme{Fn: PAs, Depth: 2}).EntryBits(16); got != 160 {
		t.Errorf("pas depth2 entry = %d bits", got)
	}
}

// TestTotalBits: a table's storage is its entries times its entry size,
// the two factors SizeLog2 sums the logs of.
func TestTotalBits(t *testing.T) {
	s := mustParse(t, "union(dir+add2)4")
	// 2^6 entries × 64 bits = 4096.
	if got := s.Index.Entries(m16) * uint64(s.EntryBits(m16.Nodes)); got != 4096 {
		t.Errorf("entries × entry bits = %d", got)
	}
}

func TestPAsIsCostlier(t *testing.T) {
	idx := IndexSpec{UsePID: true, AddrBits: 4}
	hist := Scheme{Fn: Union, Index: idx, Depth: 4}
	pas := Scheme{Fn: PAs, Index: idx, Depth: 4}
	if pas.SizeLog2(m16) <= hist.SizeLog2(m16) {
		t.Errorf("PAs (%d) should cost more than union (%d)",
			pas.SizeLog2(m16), hist.SizeLog2(m16))
	}
}

func TestFunctionsAndUpdateModes(t *testing.T) {
	if len(UpdateModes()) != 3 {
		t.Fatal("enumeration length wrong")
	}
	names := map[string]bool{}
	for _, f := range []Function{Last, Union, Inter, PAs, Sticky} {
		names[f.String()] = true
	}
	for _, want := range []string{"last", "union", "inter", "pas", "sticky"} {
		if !names[want] {
			t.Errorf("missing function %s", want)
		}
	}
	if Function(9).String() == "" || UpdateMode(9).String() == "" {
		t.Error("unknown enums should still render")
	}
}

// Property: FullString/ParseScheme round-trips over the whole valid space.
func TestSchemeRoundTripProperty(t *testing.T) {
	fns := []Function{Last, Union, Inter, PAs}
	ups := []UpdateMode{Direct, Forwarded, Ordered}
	f := func(fn, up, depth uint8, pid, dir bool, pc, addr uint8) bool {
		s := Scheme{
			Fn:     fns[fn%4],
			Update: ups[up%3],
			Depth:  1 + int(depth%4),
			Index:  IndexSpec{UsePID: pid, UseDir: dir, PCBits: int(pc % 17), AddrBits: int(addr % 17)},
		}
		if s.Fn == Last {
			s.Depth = 1
		}
		parsed, err := ParseScheme(s.FullString())
		return err == nil && parsed == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
