package core

import (
	"testing"
	"testing/quick"
)

var m16 = Machine{Nodes: 16, LineBytes: 64}

// keyOf keys one event through the spec compiled for machine m.
func keyOf(s IndexSpec, pid uint8, pc uint64, dir uint8, addr uint64, m Machine) uint64 {
	k := s.Keyer(m)
	return k.Key(pid, pc, dir, addr)
}

func TestNodeBits(t *testing.T) {
	for _, c := range []struct{ nodes, want int }{
		{1, 0}, {2, 1}, {4, 2}, {16, 4}, {17, 5}, {64, 6},
	} {
		m := Machine{Nodes: c.nodes, LineBytes: 64}
		if got := m.NodeBits(); got != c.want {
			t.Errorf("NodeBits(%d) = %d, want %d", c.nodes, got, c.want)
		}
	}
}

// TestMachineValidate pins the one machine-size rule: 1 to 64 nodes and
// a power-of-two line size no larger than 1 MiB.
func TestMachineValidate(t *testing.T) {
	for _, tc := range []struct {
		m  Machine
		ok bool
	}{
		{Machine{Nodes: 1, LineBytes: 1}, true},
		{Machine{Nodes: 64, LineBytes: MaxLineBytes}, true},
		{m16, true},
		{Machine{Nodes: 0, LineBytes: 64}, false},
		{Machine{Nodes: 65, LineBytes: 64}, false},
		{Machine{Nodes: -1, LineBytes: 64}, false},
		{Machine{Nodes: 16, LineBytes: 0}, false},
		{Machine{Nodes: 16, LineBytes: 48}, false},
		{Machine{Nodes: 16, LineBytes: -64}, false},
		{Machine{Nodes: 16, LineBytes: 2 * MaxLineBytes}, false},
	} {
		if err := tc.m.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.m, err, tc.ok)
		}
	}
}

func TestIndexBits(t *testing.T) {
	cases := []struct {
		spec IndexSpec
		want int
	}{
		{IndexSpec{}, 0},
		{IndexSpec{UsePID: true}, 4},
		{IndexSpec{UseDir: true}, 4},
		{IndexSpec{PCBits: 8}, 8},
		{IndexSpec{AddrBits: 6}, 6},
		{IndexSpec{UsePID: true, PCBits: 8, UseDir: true, AddrBits: 6}, 22},
	}
	for _, c := range cases {
		if got := c.spec.Bits(m16); got != c.want {
			t.Errorf("%v.Bits = %d, want %d", c.spec, got, c.want)
		}
	}
}

func TestKeyPacking(t *testing.T) {
	spec := IndexSpec{UsePID: true, PCBits: 4, UseDir: true, AddrBits: 4}
	// addr bits are taken from the block number: addr 0x7C0 = block 0x1F.
	key := keyOf(spec, 0xA, 0x35, 0xB, 0x7C0, m16)
	// Layout low→high: addr(4)=0xF, pc(4)=0x5, dir(4)=0xB, pid(4)=0xA.
	want := uint64(0xF) | 0x5<<4 | 0xB<<8 | 0xA<<12
	if key != want {
		t.Fatalf("Key = %#x, want %#x", key, want)
	}
}

func TestKeyIgnoresUnusedFields(t *testing.T) {
	spec := IndexSpec{AddrBits: 8}
	k1 := keyOf(spec, 3, 123, 9, 0x1000, m16)
	k2 := keyOf(spec, 7, 456, 2, 0x1000, m16)
	if k1 != k2 {
		t.Fatal("unused fields leaked into key")
	}
	if k3 := keyOf(spec, 3, 123, 9, 0x1040, m16); k3 == k1 {
		t.Fatal("different blocks produced same key")
	}
}

func TestKeyLineOffsetDiscarded(t *testing.T) {
	spec := IndexSpec{AddrBits: 16}
	k1 := keyOf(spec, 0, 0, 0, 0x1000, m16)
	k2 := keyOf(spec, 0, 0, 0, 0x103F, m16) // same 64-byte line
	if k1 != k2 {
		t.Fatal("line-offset bits leaked into key")
	}
}

func TestKeyTruncation(t *testing.T) {
	spec := IndexSpec{AddrBits: 2}
	// Blocks 0 and 4 collide under 2 addr bits.
	k1 := keyOf(spec, 0, 0, 0, 0*64, m16)
	k2 := keyOf(spec, 0, 0, 0, 4*64, m16)
	if k1 != k2 {
		t.Fatal("truncated addr did not alias")
	}
}

func TestKeyWithinRange(t *testing.T) {
	f := func(pid, dir uint8, pc, addr uint64, pcBits, addrBits uint8) bool {
		spec := IndexSpec{
			UsePID:   pid%2 == 0,
			PCBits:   int(pcBits % 17),
			UseDir:   dir%2 == 0,
			AddrBits: int(addrBits % 17),
		}
		key := keyOf(spec, pid%16, pc, dir%16, addr, m16)
		return key < spec.Entries(m16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistribution(t *testing.T) {
	cases := []struct {
		spec IndexSpec
		proc bool
		dir  bool
		cent bool
	}{
		{IndexSpec{}, false, false, true},
		{IndexSpec{PCBits: 8}, false, false, true},
		{IndexSpec{AddrBits: 8}, false, false, true},
		{IndexSpec{UseDir: true}, false, true, false},
		{IndexSpec{UsePID: true}, true, false, false},
		{IndexSpec{UsePID: true, UseDir: true}, true, true, false},
	}
	for _, c := range cases {
		d := c.spec.Distribution()
		if d.AtProcessors != c.proc || d.AtDirectory != c.dir || d.Centralized != c.cent {
			t.Errorf("%v.Distribution = %+v", c.spec, d)
		}
	}
}

func TestIndexSpecStringParse(t *testing.T) {
	cases := []struct {
		spec IndexSpec
		str  string
	}{
		{IndexSpec{}, ""},
		{IndexSpec{UsePID: true}, "pid"},
		{IndexSpec{UsePID: true, PCBits: 8}, "pid+pc8"},
		{IndexSpec{UseDir: true, AddrBits: 14}, "dir+add14"},
		{IndexSpec{UsePID: true, PCBits: 4, UseDir: true, AddrBits: 6}, "pid+pc4+dir+add6"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		parsed, err := ParseIndexSpec(c.str)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.str, err)
			continue
		}
		if parsed != c.spec {
			t.Errorf("Parse(%q) = %+v, want %+v", c.str, parsed, c.spec)
		}
	}
}

func TestParseIndexSpecMemAlias(t *testing.T) {
	// The paper writes Lai & Falsafi's scheme as last(pid+mem8).
	spec, err := ParseIndexSpec("pid+mem8")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.UsePID || spec.AddrBits != 8 {
		t.Fatalf("parsed = %+v", spec)
	}
}

func TestParseIndexSpecErrors(t *testing.T) {
	for _, s := range []string{"pid+pid", "dir+dir", "pc", "pcx", "add", "bogus", "pc0", "add-3"} {
		if _, err := ParseIndexSpec(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// Property: String/Parse round-trips for arbitrary valid specs.
func TestIndexSpecRoundTripProperty(t *testing.T) {
	f := func(pid, dir bool, pc, addr uint8) bool {
		spec := IndexSpec{UsePID: pid, UseDir: dir, PCBits: int(pc % 33), AddrBits: int(addr % 33)}
		parsed, err := ParseIndexSpec(spec.String())
		return err == nil && parsed == spec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyKeepsPIDAtMaxWidth: at the widest accepted index the pid still
// lands inside the key, so distinct writers get distinct entries (a wider
// index would shift pid out of the 64-bit key).
func TestKeyKeepsPIDAtMaxWidth(t *testing.T) {
	spec := IndexSpec{UsePID: true, PCBits: 55, UseDir: true}
	if spec.Bits(m16) != MaxKeyBits {
		t.Fatalf("Bits = %d, want %d", spec.Bits(m16), MaxKeyBits)
	}
	k1 := keyOf(spec, 1, 0x7F, 2, 0, m16)
	k9 := keyOf(spec, 9, 0x7F, 2, 0, m16)
	if k1 == k9 || k1>>MaxKeyBits != 0 || k9>>MaxKeyBits != 0 {
		t.Fatalf("pid 1 and 9 keys %#x and %#x: not distinct or above %d bits", k1, k9, MaxKeyBits)
	}
}
