package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// Function is the taxonomy's prediction-function axis (paper §3.2).
type Function int

const (
	// Last predicts the most recent sharing bitmap in the entry. It is
	// identical to Union or Inter with history depth one; the separate
	// name follows the paper's usage.
	Last Function = iota
	// Union predicts the OR of the last Depth sharing bitmaps.
	Union
	// Inter predicts the AND of the last Depth sharing bitmaps.
	Inter
	// PAs is two-level adaptive prediction: per-node history registers
	// of Depth bits index per-node pattern tables of 2-bit counters.
	PAs
	// Sticky is the sticky-spatial scheme of Bilir et al., the expansion
	// invited by the paper's footnote 2: sticky reader masks combined
	// with the masks of spatially adjacent blocks (see sticky.go).
	Sticky
)

var functionNames = map[Function]string{
	Last: "last", Union: "union", Inter: "inter", PAs: "pas", Sticky: "sticky",
}

func (f Function) String() string {
	if n, ok := functionNames[f]; ok {
		return n
	}
	return fmt.Sprintf("Function(%d)", int(f))
}

// UpdateMode is the taxonomy's update axis (paper §3.4).
type UpdateMode int

const (
	// Direct trains the current writer's entry with the invalidated
	// readers (a heuristic when writers alternate: the history may
	// belong to another writer).
	Direct UpdateMode = iota
	// Forwarded trains the previous writer's entry, possibly too late
	// for that writer's next prediction (Figure 4's hazard).
	Forwarded
	// Ordered is forwarded update with oracle timing: every entry sees
	// the complete reader sets of its earlier predictions before it
	// predicts again. Not implementable for most schemes; simulated via
	// the trace's resolved future readers.
	Ordered
)

var updateNames = map[UpdateMode]string{Direct: "direct", Forwarded: "forwarded", Ordered: "ordered"}

func (u UpdateMode) String() string {
	if n, ok := updateNames[u]; ok {
		return n
	}
	return fmt.Sprintf("UpdateMode(%d)", int(u))
}

// UpdateModes lists all update mechanisms in display order.
func UpdateModes() []UpdateMode { return []UpdateMode{Direct, Forwarded, Ordered} }

// MaxDepth is the largest history depth studied (and supported by the
// packed history entries).
const MaxDepth = 4

// Scheme is one point in the taxonomy, named in the paper's
// prediction-function(index)depth[update] notation.
type Scheme struct {
	Fn     Function
	Index  IndexSpec
	Depth  int
	Update UpdateMode
}

// Validate reports whether the scheme is well-formed.
func (s Scheme) Validate() error {
	if s.Depth < 1 || s.Depth > MaxDepth {
		return fmt.Errorf("core: depth %d outside [1,%d]", s.Depth, MaxDepth)
	}
	if idx := s.Index; idx.PCBits < 0 || idx.AddrBits < 0 ||
		idx.PCBits > MaxKeyBits || idx.AddrBits > MaxKeyBits || idx.PCBits+idx.AddrBits > MaxKeyBits {
		return fmt.Errorf("core: index %q needs pc and addr widths in [0,%d] summing to at most %d",
			idx.String(), MaxKeyBits, MaxKeyBits)
	}
	if s.Fn == Last && s.Depth != 1 {
		return fmt.Errorf("core: last prediction requires depth 1 (got %d)", s.Depth)
	}
	if s.Fn == Sticky {
		if s.Depth != 1 {
			return fmt.Errorf("core: sticky prediction requires depth 1 (got %d)", s.Depth)
		}
		if s.Index.AddrBits <= 0 {
			return fmt.Errorf("core: sticky prediction requires addr bits in the index")
		}
	}
	if _, ok := functionNames[s.Fn]; !ok {
		return fmt.Errorf("core: unknown function %d", int(s.Fn))
	}
	if _, ok := updateNames[s.Update]; !ok {
		return fmt.Errorf("core: unknown update mode %d", int(s.Update))
	}
	return nil
}

// ValidateOn is Validate where the scheme meets machine m: it also rejects
// an index wider than MaxKeyBits there, a total Validate cannot check
// because pid and dir widths depend on the node count.
func (s Scheme) ValidateOn(m Machine) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if b := s.Index.Bits(m); b > MaxKeyBits {
		return fmt.Errorf("core: index %q is %d bits wide on a %d-node machine, above the %d-bit key limit",
			s.Index.String(), b, m.Nodes, MaxKeyBits)
	}
	return nil
}

// String renders the scheme without the update suffix when the update is
// Direct (the paper's default presentation segregates results by update
// mechanism); use FullString to always include it.
func (s Scheme) String() string {
	return fmt.Sprintf("%s(%s)%d", s.Fn, s.Index, s.Depth)
}

// FullString renders the scheme including the [update] suffix.
func (s Scheme) FullString() string {
	return fmt.Sprintf("%s[%s]", s.String(), s.Update)
}

// ParseScheme parses "fn(index)depth" with an optional "[update]" suffix
// (default direct). Examples: "last()1", "inter(pid+pc8)2[forwarded]",
// "union(dir+add14)4".
func ParseScheme(str string) (Scheme, error) {
	var s Scheme
	rest := strings.TrimSpace(str)
	// Optional [update] suffix.
	s.Update = Direct
	if i := strings.IndexByte(rest, '['); i >= 0 {
		if !strings.HasSuffix(rest, "]") {
			return s, fmt.Errorf("core: unterminated update suffix in %q", str)
		}
		name := rest[i+1 : len(rest)-1]
		rest = rest[:i]
		found := false
		for mode, n := range updateNames {
			// Accept the paper's occasional "forward" shorthand.
			if n == name || (name == "forward" && mode == Forwarded) {
				s.Update = mode
				found = true
				break
			}
		}
		if !found {
			return s, fmt.Errorf("core: unknown update mode %q in %q", name, str)
		}
	}
	open := strings.IndexByte(rest, '(')
	close_ := strings.LastIndexByte(rest, ')')
	if open < 0 || close_ < open {
		return s, fmt.Errorf("core: missing (index) in %q", str)
	}
	fnName := rest[:open]
	found := false
	for fn, n := range functionNames {
		if n == fnName {
			s.Fn = fn
			found = true
			break
		}
	}
	if !found {
		return s, fmt.Errorf("core: unknown prediction function %q in %q", fnName, str)
	}
	var err error
	if s.Index, err = ParseIndexSpec(rest[open+1 : close_]); err != nil {
		return s, err
	}
	depthStr := strings.TrimSpace(rest[close_+1:])
	if depthStr == "" {
		s.Depth = 1 // the paper writes e.g. last(pid+mem8) without a depth
	} else if _, err := fmt.Sscanf(depthStr, "%d", &s.Depth); err != nil {
		return s, fmt.Errorf("core: bad depth %q in %q", depthStr, str)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// EntryBits returns the storage cost of one predictor entry, in bits, on an
// n-node machine. History entries store Depth sharing bitmaps; PAs entries
// store n history registers of Depth bits plus n pattern tables of 2^Depth
// 2-bit counters (paper §3.2, §5.4: "we counted the bit costs for both the
// history shift registers and the pattern history tables").
func (s Scheme) EntryBits(nodes int) int {
	switch s.Fn {
	case PAs:
		return nodes*s.Depth + nodes*(1<<uint(s.Depth))*2
	case Sticky:
		// Sticky mask plus per-node strike counters.
		return nodes + nodes*2
	default:
		return s.Depth * nodes
	}
}

// SizeLog2 returns the paper's cost measure: log2 of the total predictor
// bits, computed as index bits plus ceil(log2(entry bits)). The zero-index
// depth-1 last/union/inter scheme reports 0, matching the paper's
// "baseline-last ... costs no storage" (its single bitmap is already held
// by the directory).
func (s Scheme) SizeLog2(m Machine) int {
	if s.Index.Bits(m) == 0 && s.Depth == 1 && s.Fn != PAs {
		return 0
	}
	entry := s.EntryBits(m.Nodes)
	return s.Index.Bits(m) + ceilLog2(entry)
}

func ceilLog2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}
