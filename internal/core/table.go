package core

import (
	"hash/maphash"
	"math/bits"

	"cohpredict/internal/bitmap"
)

// Table is the state of one predictor: a keyed collection of entries with a
// predict and a train operation. The update mechanism (which key gets
// trained, and when) lives outside, in UpdateMode.Schedule — exactly the
// separation the taxonomy draws between prediction function and update.
// FlatTable implements it for every built-in scheme.
type Table interface {
	// Predict returns the entry's prediction for the given index key.
	// Untrained entries predict the empty bitmap (no forwarding).
	Predict(key uint64) bitmap.Bitmap
	// Train feeds a true sharing bitmap into the entry for key.
	Train(key uint64, feedback bitmap.Bitmap)
	// Entries returns the number of allocated (touched) entries, for
	// occupancy statistics.
	Entries() int
}

// FlatTable is the predictor table of every built-in scheme, shaped like
// the paper's fixed hardware tables (§3.2): entries are words held inline,
// with no pointer per entry for the garbage collector to scan. It is an
// open-addressing array of slots, probed linearly from a seeded hash of
// the key (see find); a slot is the key plus one (0 marks an empty slot),
// then the entry: a HistoryEntry, a PAs entry's bit planes (pas.go) or a
// sticky entry's (sticky.go). A slot is claimed when its key first trains,
// which behaves as a hardware table whose untouched entries predict
// nothing. Slots are never freed.
type FlatTable struct {
	fn       Function
	depth    int
	all      bitmap.Bitmap // the machine's nodes
	nodes    int
	addrBits int // sticky: width of the addr field
	keyBits  int // keys are below 1<<keyBits

	slots []uint64
	seed  uint64 // random per table, mixed into every key's hash
	width int    // words per slot: the key word plus the entry's words
	size  uint64 // slot count; 0 in a shape, whose one slot is scratch (CheckEntries)
	n     int    // claimed slots
}

const (
	hashMul      = 0x9E3779B97F4A7C15 // the golden ratio, 2^64/φ
	minSlots     = 8                  // a fresh table's slot count
	historyWords = MaxDepth + 1       // the bitmaps and the count
)

// NewTable returns an empty predictor table for the scheme on machine m.
// It panics if the scheme is invalid or its index does not fit a key on
// m (construction-time errors).
func NewTable(s Scheme, m Machine) *FlatTable {
	t, err := newShape(s, m)
	if err != nil {
		//predlint:ignore panicfree construction-time scheme validation
		panic(err)
	}
	t.slots = make([]uint64, minSlots*t.width)
	t.size = minSlots
	return t
}

// newShape returns the parameters of a table for the scheme on machine
// m, with no slots, or the reason the scheme's index does not fit m.
func newShape(s Scheme, m Machine) (*FlatTable, error) {
	if err := s.ValidateOn(m); err != nil {
		return nil, err
	}
	t := &FlatTable{
		fn:       s.Fn,
		depth:    s.Depth,
		all:      bitmap.Full(m.Nodes),
		nodes:    m.Nodes,
		addrBits: s.Index.AddrBits,
		keyBits:  s.Index.Bits(m),
		seed:     maphash.String(maphash.MakeSeed(), ""), // 64 random bits
	}
	switch s.Fn {
	case PAs:
		t.width = 1 + s.Depth + 2<<uint(s.Depth)
	case Sticky:
		t.width = 1 + stickyWords
	case Last, Union, Inter:
		t.width = 1 + historyWords
	}
	return t, nil
}

// find returns the offset of key's slot and true, or the offset of the
// empty slot where key would be claimed and false. The probe starts at a
// folded multiply of the key and the table's random seed, scaled to the
// slot count. Clients choose the keys, and with an unseeded hash they
// could choose n keys that all start at one slot, costing O(n²) probes.
//
//predlint:hotpath
func (t *FlatTable) find(key uint64) (int, bool) {
	want := key + 1
	hi, lo := bits.Mul64(key^t.seed, hashMul)
	i, _ := bits.Mul64(hi^lo, t.size)
	for {
		off := int(i) * t.width
		switch t.slots[off] {
		case want:
			return off, true
		case 0:
			return off, false
		}
		if i++; i == t.size {
			i = 0
		}
	}
}

// claim returns the offset of key's slot, claiming an empty one (whose
// entry words are all zero) if the key is new.
//
//predlint:hotpath
func (t *FlatTable) claim(key uint64) int {
	off, ok := t.find(key)
	if ok {
		return off
	}
	if !fits(t.n+1, int(t.size)) {
		t.resize(2 * int(t.size))
		off, _ = t.find(key)
	}
	t.slots[off] = key + 1
	t.n++
	return off
}

// fits reports whether n entries stay within the maximum load factor of
// 3/4 in a table of the given slot count.
func fits(n, slots int) bool { return 4*n <= 3*slots }

// resize moves the entries to a fresh array of the given slot count.
func (t *FlatTable) resize(slots int) {
	old := t.slots
	t.slots = make([]uint64, slots*t.width)
	t.size = uint64(slots)
	for off := 0; off < len(old); off += t.width {
		if k := old[off]; k != 0 {
			dst, _ := t.find(k - 1)
			copy(t.slots[dst:dst+t.width], old[off:off+t.width])
		}
	}
}

// Predict implements Table.
//
//predlint:hotpath
func (t *FlatTable) Predict(key uint64) bitmap.Bitmap {
	switch t.fn {
	case Sticky:
		// The OR of the masks of the key's entry and its two spatial
		// neighbours.
		down, up := t.neighbours(key)
		var b uint64
		for _, k := range [3]uint64{down, key, up} {
			if off, ok := t.find(k); ok {
				b |= t.slots[off+1+stickyMask]
			}
		}
		return bitmap.Bitmap(b)
	case PAs:
		if off, ok := t.find(key); ok {
			return pasPredict(t.slots[off+1:off+t.width], t.depth, t.all)
		}
	case Last, Union, Inter:
		if off, ok := t.find(key); ok {
			return (*HistoryEntry)(t.slots[off+1:]).Predict(t.fn, t.depth)
		}
	}
	return bitmap.Empty
}

// Train implements Table.
//
//predlint:hotpath
func (t *FlatTable) Train(key uint64, feedback bitmap.Bitmap) {
	off := t.claim(key)
	w := t.slots[off+1 : off+t.width]
	switch t.fn {
	case Sticky:
		stickyTrain(w, t.all, feedback)
	case PAs:
		pasTrain(w, t.depth, t.all, feedback)
	case Last, Union, Inter:
		(*HistoryEntry)(w).Push(feedback)
	}
}

// Entries implements Table.
func (t *FlatTable) Entries() int { return t.n }

// History returns the history entry for key (empty if the key never
// trained), which serves every function and depth at once.
//
//predlint:hotpath
func (t *FlatTable) History(key uint64) HistoryEntry {
	if off, ok := t.find(key); ok {
		return *(*HistoryEntry)(t.slots[off+1:])
	}
	return HistoryEntry{}
}
