package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"cohpredict/internal/codec"
)

// Table checkpointing. AppendEntries writes the entries of a table
// straight from its slots into the entry section of a COHSNAP1 snapshot
// (internal/eval), and ImportEntries reads a section back into an empty
// table, checking each entry against the table's own parameters as it
// goes. A live engine is checkpointed and resumed byte-identically this
// way (the serving layer's ship, migrate and kill/restore paths).
//
// The section is the entry count, then each entry in key order, all
// canonical uvarints: its key (the first one whole, each later one as
// its delta from the one before, so every delta is positive), its word
// count, and its words, laid out by table kind:
//
//	history (last/union/inter): [n, bitmap_oldest, ..., bitmap_newest]
//	pas:                        [depth, nodes, hist[0..nodes), counter[0..nodes<<depth)]
//	sticky:                     [mask, trained, strikes[0..nodes)]
//
// where a PAs counter index is node<<depth | pattern. Key order makes the
// section independent of slot order.

// The ways an entry can fail to fit its table. They are static values so
// the import kernel can return them without formatting; ImportEntries
// wraps them with the entry's position and key.
var (
	errKeyOrder      = errors.New("keys are not strictly increasing")
	errKeyOverflow   = errors.New("key delta overflows")
	errKeyRange      = errors.New("key is outside the index")
	errHistoryLen    = errors.New("history length out of range")
	errHistoryWords  = errors.New("history entry word count does not match its length")
	errPASShape      = errors.New("pas entry shape does not match the table's depth and nodes")
	errPASHistory    = errors.New("pas history register out of range")
	errPASCounter    = errors.New("pas counter exceeds the 2-bit range")
	errStickyShape   = errors.New("sticky entry word count does not match the machine")
	errStickyMask    = errors.New("sticky mask has bits beyond the machine's nodes")
	errStickyTrained = errors.New("sticky trained flag is not boolean")
	errStickyMasked  = errors.New("sticky entry has a mask but is untrained")
	errStickyStrike  = errors.New("sticky strike count out of range")
)

// slotRef is one claimed slot: its key and its word offset.
type slotRef struct {
	key uint64
	off int
}

// AppendEntries appends the entry section of t to dst, in key order.
// Each entry is written from its slot; the only other memory is one
// slotRef per entry, to sort the keys.
func AppendEntries(dst []byte, t *FlatTable) []byte {
	dst = codec.AppendUvarint(dst, uint64(t.n))
	if t.n == 0 {
		return dst
	}
	refs := make([]slotRef, 0, t.n)
	for off := 0; off < len(t.slots); off += t.width {
		if key := t.slots[off]; key != 0 {
			refs = append(refs, slotRef{key: key - 1, off: off})
		}
	}
	slices.SortFunc(refs, func(a, b slotRef) int { return cmp.Compare(a.key, b.key) })
	return t.appendSorted(dst, refs)
}

// appendSorted appends the entries refs point at, in refs' order, which
// is strictly increasing key order.
//
//predlint:hotpath
func (t *FlatTable) appendSorted(dst []byte, refs []slotRef) []byte {
	most := t.maxEntryBytes()
	prev := uint64(0)
	for i := range refs {
		r := &refs[i]
		if cap(dst)-len(dst) < most {
			dst = slices.Grow(dst, most)
		}
		b := dst[:cap(dst)]
		j := codec.PutUvarint(b, len(dst), r.key-prev) // the first key whole
		prev = r.key
		dst = b[:t.putEntry(b, j, t.slots[r.off+1:r.off+t.width])]
	}
	return dst
}

// maxEntryBytes bounds the bytes one entry of t takes in a section: its
// key, its word count and its words.
func (t *FlatTable) maxEntryBytes() int {
	words := 0
	switch t.fn {
	case PAs:
		words = 2 + t.nodes + t.nodes<<uint(t.depth)
	case Sticky:
		words = binary.MaxVarintLen64 + 1 + t.nodes
	case Last, Union, Inter:
		words = 1 + MaxDepth*binary.MaxVarintLen64
	}
	return 2*binary.MaxVarintLen64 + words
}

// minEntryBytes is the fewest bytes an entry of t takes in a section: a
// byte for its key, its word count and each of its words.
func (t *FlatTable) minEntryBytes() int {
	words := 0
	switch t.fn {
	case PAs:
		words = 2 + t.nodes + t.nodes<<uint(t.depth)
	case Sticky:
		words = 2 + t.nodes
	case Last, Union, Inter:
		words = 2 // the length and one bitmap
	}
	return 2 + words
}

// putEntry writes the word count and words of the entry held in w into b
// at j, which has room for them, and returns the index past them. Every
// word but a bitmap or a sticky mask is below 0x80, a one-byte uvarint.
//
//predlint:hotpath
func (t *FlatTable) putEntry(b []byte, j int, w []uint64) int {
	switch t.fn {
	case PAs:
		d, nodes := t.depth, t.nodes
		j = codec.PutUvarint(b, j, uint64(2+nodes+nodes<<uint(d)))
		b[j], b[j+1] = byte(d), byte(nodes)
		j += 2
		for n := 0; n < nodes; n++ {
			var h uint64
			for k := 0; k < d; k++ {
				h |= (w[k] >> uint(n) & 1) << uint(k)
			}
			b[j] = byte(h)
			j++
		}
		for n := 0; n < nodes; n++ {
			for p := 0; p < 1<<uint(d); p++ {
				lo, hi := w[d+2*p]>>uint(n)&1, w[d+2*p+1]>>uint(n)&1
				b[j] = byte(hi<<1 | lo)
				j++
			}
		}
	case Sticky:
		j = codec.PutUvarint(b, j, uint64(2+t.nodes))
		j = codec.PutUvarint(b, j, w[stickyMask])
		b[j] = byte(w[stickyTrained])
		j++
		for n := 0; n < t.nodes; n++ {
			b[j] = byte(w[stickyStrike] >> uint(n) & 1)
			j++
		}
	case Last, Union, Inter:
		e := (*HistoryEntry)(w)
		n := e.Len()
		b[j], b[j+1] = byte(1+n), byte(n)
		j += 2
		for i := n - 1; i >= 0; i-- { // oldest first
			j = codec.PutUvarint(b, j, e[i])
		}
	}
	return j
}

// ImportEntries reads the entry section sec, as AppendEntries writes it,
// into t, an empty table, sized for exactly the entries it receives
// before any is read. Every entry is checked as it is read: canonical
// uvarints, strictly increasing keys, keys inside the index, and the
// table kind's word count and ranges; sec must end where its last entry
// does. On error the table holds whatever was read before it, and
// callers discard it.
func ImportEntries(sec []byte, t *FlatTable) error {
	n, k, err := entryCount(sec)
	if err != nil {
		return err
	}
	sec = sec[k:]
	// The table is sized from n before any entry is read, so n must be
	// one the bytes can hold at the table kind's smallest entry.
	if n > len(sec)/t.minEntryBytes() {
		return fmt.Errorf("core: entry count: %w", codec.ErrCount)
	}
	if t.size != 0 { // a shape has nothing to size
		t.reserve(n)
	}
	if i, key, err := importEntries(sec, n, t); err != nil {
		return fmt.Errorf("core: entry %d (key %#x): %w", i, key, err)
	}
	return nil
}

// CheckEntries checks the entry section sec exactly as ImportEntries
// checks it on its way into a table of scheme s on machine m, and returns
// the error ImportEntries would, without a table: it imports into a
// shape, which reads every entry into one scratch slot and claims none.
// A scheme whose index does not fit m is an error here, where NewTable
// panics.
func CheckEntries(sec []byte, s Scheme, m Machine) error {
	t, err := newShape(s, m)
	if err != nil {
		return err
	}
	t.slots = make([]uint64, t.width)
	return ImportEntries(sec, t)
}

// EntriesLen returns the length of the entry section at the front of b,
// checking only its structure: canonical uvarints, and an entry count and
// word counts that the bytes can hold. ImportEntries checks the rest.
func EntriesLen(b []byte) (int, error) {
	n, k, err := entryCount(b)
	if err != nil {
		return 0, err
	}
	m, err := scanEntries(b[k:], n)
	if err != nil {
		return 0, fmt.Errorf("core: entries: %w", err)
	}
	return k + m, nil
}

// entryCount reads the entry count at the front of a section, and the
// bytes it took. The rest of the section must have room for that many
// entries at two bytes (a key and a word count) each.
func entryCount(b []byte) (n, k int, err error) {
	v, k, ok := codec.Uvarint(b)
	if !ok {
		return 0, 0, fmt.Errorf("core: entry count: %w", codec.UvarintErr(k))
	}
	if v > uint64(len(b)-k)/2 {
		return 0, 0, fmt.Errorf("core: entry count: %w", codec.ErrCount)
	}
	return int(v), k, nil
}

// scanEntries walks n entries at the front of b without decoding their
// words and returns the bytes they take.
//
//predlint:hotpath
func scanEntries(b []byte, n int) (int, error) {
	i := 0
	for ; n > 0; n-- {
		_, k, ok := codec.Uvarint(b[i:]) // the key delta
		if !ok {
			return 0, codec.UvarintErr(k)
		}
		i += k
		c, k, ok := codec.Uvarint(b[i:])
		if !ok {
			return 0, codec.UvarintErr(k)
		}
		i += k
		if c > uint64(len(b)-i) { // every word takes a byte
			return 0, codec.ErrCount
		}
		for ; c > 0; c-- {
			_, k, ok := codec.Uvarint(b[i:])
			if !ok {
				return 0, codec.UvarintErr(k)
			}
			i += k
		}
	}
	return i, nil
}

// reserve sizes an empty table for n entries.
func (t *FlatTable) reserve(n int) {
	if n := t.n + n; !fits(n, int(t.size)) {
		t.resize((4*n + 2) / 3)
	}
}

// importEntries reads n entries from b into t and checks that they end
// b. On error it returns the failing entry's position and key.
//
//predlint:hotpath
func importEntries(b []byte, n int, t *FlatTable) (int, uint64, error) {
	var key uint64
	for i := 0; i < n; i++ {
		d, k, ok := codec.Uvarint(b)
		if !ok {
			return i, key, codec.UvarintErr(k)
		}
		b = b[k:]
		if i > 0 {
			if d == 0 {
				return i, key, errKeyOrder
			}
			if key > math.MaxUint64-d {
				return i, key, errKeyOverflow
			}
			d += key
		}
		key = d
		if key>>uint(t.keyBits) != 0 {
			return i, key, errKeyRange
		}
		off := 0 // a shape reads every entry into its one slot
		if t.size != 0 {
			off = t.claim(key)
		}
		m, err := t.readEntry(b, t.slots[off+1:off+t.width])
		if err != nil {
			return i, key, err
		}
		b = b[m:]
	}
	if len(b) != 0 {
		return n, key, codec.ErrTrailing
	}
	return n, key, nil
}

// readEntry reads one entry's word count and words from the front of b
// into w, its freshly claimed slot, and returns the bytes they took. A
// PAs entry's words, and a sticky entry's words after its mask, must
// each be below 0x80, so each is one byte: a longer uvarint is either
// non-minimal or out of range, and both are errors.
//
//predlint:hotpath
func (t *FlatTable) readEntry(b []byte, w []uint64) (int, error) {
	c, j, ok := codec.Uvarint(b)
	if !ok {
		return 0, codec.UvarintErr(j)
	}
	switch t.fn {
	case PAs:
		d, nodes := t.depth, t.nodes
		if c != uint64(2+nodes+nodes<<uint(d)) {
			return 0, errPASShape
		}
		if c > uint64(len(b)-j) {
			return 0, codec.ErrTruncated
		}
		ws := b[j : j+int(c)]
		if ws[0] != byte(d) || ws[1] != byte(nodes) {
			return 0, errPASShape
		}
		// Each plane gathers one bit of every node's word. The words of
		// each kind are ORed together as they are read, and out-of-range
		// ones refused after the loops, the slot discarded with the table
		// then.
		hs := ws[2 : 2+nodes]
		var hists, counters byte
		for k := 0; k < d; k++ {
			var plane uint64
			for n, h := range hs {
				hists |= h
				plane |= uint64(h>>uint(k)&1) << uint(n)
			}
			w[k] = plane
		}
		if hists>>uint(d) != 0 {
			return 0, errPASHistory
		}
		cs := ws[2+nodes:]
		for p := 0; p < 1<<uint(d); p++ {
			var lo, hi uint64
			for n := 0; n < nodes; n++ {
				c := cs[n<<uint(d)+p]
				counters |= c
				lo |= uint64(c&1) << uint(n)
				hi |= uint64(c>>1&1) << uint(n)
			}
			w[d+2*p], w[d+2*p+1] = lo, hi
		}
		if counters > 3 {
			return 0, errPASCounter
		}
		return j + int(c), nil
	case Sticky:
		if c != uint64(2+t.nodes) {
			return 0, errStickyShape
		}
		mask, k, ok := codec.Uvarint(b[j:])
		if !ok {
			return 0, codec.UvarintErr(k)
		}
		j += k
		if mask&^uint64(t.all) != 0 {
			return 0, errStickyMask
		}
		if 1+t.nodes > len(b)-j {
			return 0, codec.ErrTruncated
		}
		trained := b[j]
		if trained > 1 {
			return 0, errStickyTrained
		}
		if mask != 0 && trained == 0 {
			return 0, errStickyMasked
		}
		var over byte
		var strikes uint64
		for n, s := range b[j+1 : j+1+t.nodes] {
			over |= s
			strikes |= uint64(s&1) << uint(n)
		}
		if over >= StickyStrikes {
			return 0, errStickyStrike
		}
		w[stickyMask], w[stickyTrained], w[stickyStrike] = mask, uint64(trained), strikes
		return j + 1 + t.nodes, nil
	case Last, Union, Inter:
		n, k, ok := codec.Uvarint(b[j:])
		if !ok {
			return 0, codec.UvarintErr(k)
		}
		j += k
		if n == 0 || n > MaxDepth {
			return 0, errHistoryLen
		}
		if c != 1+n {
			return 0, errHistoryWords
		}
		w[MaxDepth] = n
		for i := int(n) - 1; i >= 0; i-- { // oldest first, so newest in w[0]
			v, k, ok := codec.Uvarint(b[j:])
			if !ok {
				return 0, codec.UvarintErr(k)
			}
			j += k
			w[i] = v
		}
		return j, nil
	}
	return j, nil
}
