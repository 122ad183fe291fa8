package core

import (
	"fmt"
	"math/bits"
	"strings"

	"cohpredict/internal/bitmap"
)

// IndexSpec selects the fields that index the global predictor (the
// taxonomy's "access" axis, paper §3.1). Following the paper, pid and dir
// are used in full or not at all (so the global abstraction can be
// distributed to the processors or directories), while pc and addr may be
// truncated to any number of low-order bits.
type IndexSpec struct {
	UsePID   bool
	PCBits   int
	UseDir   bool
	AddrBits int
}

// Machine carries the two machine properties indexing depends on: the node
// count (pid/dir width) and the line size (which low address bits are
// block offset, not block identity).
type Machine struct {
	Nodes     int
	LineBytes int
}

// MaxLineBytes is the largest line size a machine may declare.
const MaxLineBytes = 1 << 20

// Validate reports whether m is a machine the engine can serve: 1 to
// bitmap.MaxNodes nodes, and a line size that is a power of two no larger
// than MaxLineBytes. Session create and restore, the snapshot decoder and
// the incident-trace decoder all apply this one rule.
func (m Machine) Validate() error {
	switch {
	case m.Nodes <= 0 || m.Nodes > bitmap.MaxNodes:
		return fmt.Errorf("core: node count %d out of range [1,%d]", m.Nodes, bitmap.MaxNodes)
	case m.LineBytes <= 0 || m.LineBytes > MaxLineBytes:
		return fmt.Errorf("core: line size %d out of range [1,%d]", m.LineBytes, MaxLineBytes)
	case m.LineBytes&(m.LineBytes-1) != 0:
		return fmt.Errorf("core: line size %d is not a power of two", m.LineBytes)
	}
	return nil
}

// NodeBits returns the number of bits a full pid or dir field occupies.
func (m Machine) NodeBits() int {
	if m.Nodes <= 1 {
		return 0
	}
	return bits.Len(uint(m.Nodes - 1))
}

// MaxKeyBits is the widest index a scheme may use on its machine: the
// entry count 1<<Bits then fits a uint64, and FlatTable's slot encoding
// (the key plus one) cannot wrap.
const MaxKeyBits = 63

// Bits returns the total number of index bits the spec uses on machine m.
func (s IndexSpec) Bits(m Machine) int {
	n := s.PCBits + s.AddrBits
	if s.UsePID {
		n += m.NodeBits()
	}
	if s.UseDir {
		n += m.NodeBits()
	}
	return n
}

// Entries returns the number of predictor entries the spec addresses.
func (s IndexSpec) Entries(m Machine) uint64 { return 1 << uint(s.Bits(m)) }

// Keyer is an IndexSpec compiled for one machine: the line shift, field
// masks and field positions that Key needs, worked out once rather than
// on every event.
type Keyer struct {
	addrMask, pcMask                       uint64
	lineShift, pcShift, dirShift, pidShift uint // 64 shifts an unused field out
}

// Keyer compiles the spec for machine m.
func (s IndexSpec) Keyer(m Machine) Keyer {
	k := Keyer{
		lineShift: uint(bits.Len(uint(m.LineBytes)) - 1),
		addrMask:  lowBits(s.AddrBits),
		pcMask:    lowBits(s.PCBits),
		pcShift:   uint(s.AddrBits),
		dirShift:  64,
		pidShift:  64,
	}
	shift := uint(s.AddrBits + s.PCBits)
	if s.UseDir {
		k.dirShift = shift
		shift += uint(m.NodeBits())
	}
	if s.UsePID {
		k.pidShift = shift
	}
	return k
}

func lowBits(n int) uint64 { return 1<<uint(n) - 1 }

// Key packs the event fields into a predictor index. Layout, low to high:
// addr bits (of the block number), pc bits, dir, pid. addr is a byte
// address; its block-offset bits are discarded first.
//
//predlint:hotpath
func (k *Keyer) Key(pid uint8, pc uint64, dir uint8, addr uint64) uint64 {
	return (addr>>k.lineShift)&k.addrMask | (pc&k.pcMask)<<k.pcShift |
		uint64(dir)<<k.dirShift | uint64(pid)<<k.pidShift
}

// ReadsWriter reports whether the index reads the writer's pid or pc, so
// forwarded update keys its feedback by the previous writer.
func (k *Keyer) ReadsWriter() bool { return k.pcMask != 0 || k.pidShift < 64 }

// Distribution describes where a physical implementation of the indexing
// family can live (the paper's Table 1 columns).
type Distribution struct {
	AtProcessors bool // can be split across the processors (pid in index)
	AtDirectory  bool // can be split across the directories (dir in index)
	Centralized  bool // neither pid nor dir: must be centralized
}

// Distribution classifies the spec per the paper's Table 1.
func (s IndexSpec) Distribution() Distribution {
	return Distribution{
		AtProcessors: s.UsePID,
		AtDirectory:  s.UseDir,
		Centralized:  !s.UsePID && !s.UseDir,
	}
}

// String renders the spec in the paper's notation: fields joined by "+" in
// pid, pc, dir, addr order, with bit counts on pc and addr (e.g.
// "pid+pc8+dir+add6"). The empty spec renders as "".
func (s IndexSpec) String() string {
	var parts []string
	if s.UsePID {
		parts = append(parts, "pid")
	}
	if s.PCBits > 0 {
		parts = append(parts, fmt.Sprintf("pc%d", s.PCBits))
	}
	if s.UseDir {
		parts = append(parts, "dir")
	}
	if s.AddrBits > 0 {
		parts = append(parts, fmt.Sprintf("add%d", s.AddrBits))
	}
	return strings.Join(parts, "+")
}

// ParseIndexSpec parses the notation produced by String. It also accepts
// the "mem" alias for "add" that the paper uses when describing Lai and
// Falsafi's scheme.
func ParseIndexSpec(s string) (IndexSpec, error) {
	var spec IndexSpec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		switch {
		case part == "pid":
			if spec.UsePID {
				return spec, fmt.Errorf("core: duplicate pid in index %q", s)
			}
			spec.UsePID = true
		case part == "dir":
			if spec.UseDir {
				return spec, fmt.Errorf("core: duplicate dir in index %q", s)
			}
			spec.UseDir = true
		case strings.HasPrefix(part, "pc"):
			if _, err := fmt.Sscanf(part, "pc%d", &spec.PCBits); err != nil || spec.PCBits <= 0 {
				return spec, fmt.Errorf("core: bad pc field %q in index %q", part, s)
			}
		case strings.HasPrefix(part, "add") || strings.HasPrefix(part, "mem"):
			if _, err := fmt.Sscanf(part[3:], "%d", &spec.AddrBits); err != nil || spec.AddrBits <= 0 {
				return spec, fmt.Errorf("core: bad addr field %q in index %q", part, s)
			}
		default:
			return spec, fmt.Errorf("core: unknown index field %q in index %q", part, s)
		}
	}
	return spec, nil
}
