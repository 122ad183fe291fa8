package core

import (
	"cmp"
	"fmt"
	"slices"

	"cohpredict/internal/bitmap"
)

// Table checkpointing. ExportTable/ImportTable move a predictor table's
// entry states in and out of a flat, deterministic representation so a
// live engine can be checkpointed and resumed byte-identically (the
// serving layer's kill/restore path, internal/eval's snapshot codec).
//
// EntryState encodes one entry as a word slice whose layout depends on
// the table kind:
//
//	history (last/union/inter): [n, bitmap_oldest, ..., bitmap_newest]
//	pas:                        [depth, nodes, hist[0..nodes), counter[0..nodes<<depth)]
//	sticky:                     [mask, trained, strikes[0..nodes)]
//
// where a PAs counter index is node<<depth | pattern. Exported entries are
// sorted by key, making the representation — and everything encoded from
// it — independent of slot order.

// EntryState is the serialized state of one predictor entry.
type EntryState struct {
	Key   uint64
	Words []uint64
}

// SortEntries sorts entry states by key, the canonical order the snapshot
// codec requires.
func SortEntries(es []EntryState) {
	slices.SortFunc(es, func(a, b EntryState) int { return cmp.Compare(a.Key, b.Key) })
}

// ExportTable returns the table's entry states sorted by key. Restoring
// them with ImportTable into a fresh table of the same scheme yields a
// table whose future predictions are identical.
func ExportTable(t *FlatTable) []EntryState {
	keys := make([]uint64, 0, t.n)
	for off := 0; off < len(t.slots); off += t.width {
		if k := t.slots[off]; k != 0 {
			keys = append(keys, k-1)
		}
	}
	slices.Sort(keys)
	per := 1 + MaxDepth // a full history entry
	switch t.fn {
	case PAs:
		per = 2 + t.nodes + t.nodes<<uint(t.depth)
	case Sticky:
		per = 2 + t.nodes
	case Last, Union, Inter:
	}
	words := make([]uint64, 0, per*len(keys))
	out := make([]EntryState, len(keys))
	for i, k := range keys {
		off, _ := t.find(k)
		start := len(words)
		words = t.appendEntry(words, t.slots[off+1:off+t.width])
		out[i] = EntryState{Key: k, Words: words[start:len(words):len(words)]}
	}
	return out
}

// appendEntry appends the exported words of the entry held in w.
func (t *FlatTable) appendEntry(dst, w []uint64) []uint64 {
	switch t.fn {
	case PAs:
		d := t.depth
		dst = append(dst, uint64(d), uint64(t.nodes))
		for n := 0; n < t.nodes; n++ {
			var h uint64
			for j := 0; j < d; j++ {
				h |= (w[j] >> uint(n) & 1) << uint(j)
			}
			dst = append(dst, h)
		}
		for n := 0; n < t.nodes; n++ {
			for p := 0; p < 1<<d; p++ {
				lo, hi := w[d+2*p]>>uint(n)&1, w[d+2*p+1]>>uint(n)&1
				dst = append(dst, hi<<1|lo)
			}
		}
	case Sticky:
		dst = append(dst, w[stickyMask], w[stickyTrained])
		for n := 0; n < t.nodes; n++ {
			dst = append(dst, w[stickyStrike]>>uint(n)&1)
		}
	case Last, Union, Inter:
		e := (*HistoryEntry)(w)
		dst = append(dst, uint64(e.Len()))
		for i := e.Len() - 1; i >= 0; i-- { // oldest first
			dst = append(dst, uint64(e.Recent(i)))
		}
	}
	return dst
}

// ImportTable loads exported entry states into a fresh table, sized for
// exactly that many entries. Every key and word is validated against the
// table's own parameters; malformed state returns an error and leaves no
// guarantee about partially-loaded entries (callers discard the table on
// error).
func ImportTable(t *FlatTable, entries []EntryState) error {
	if n := t.n + len(entries); !fits(n, int(t.size)) {
		t.resize((4*n + 2) / 3)
	}
	for i := range entries {
		if err := t.importEntry(&entries[i]); err != nil {
			return fmt.Errorf("core: entry %d (key %#x): %w", i, entries[i].Key, err)
		}
	}
	return nil
}

func (t *FlatTable) importEntry(es *EntryState) error {
	if es.Key>>uint(t.keyBits) != 0 {
		return fmt.Errorf("key is outside the %d-bit index", t.keyBits)
	}
	if _, dup := t.find(es.Key); dup {
		return fmt.Errorf("duplicate key")
	}
	off := t.claim(es.Key)
	return t.parseEntry(es.Words, t.slots[off+1:off+t.width])
}

// parseEntry validates one exported entry's words and fills w, the entry's
// freshly claimed slot.
func (t *FlatTable) parseEntry(words, w []uint64) error {
	switch t.fn {
	case PAs:
		if len(words) < 2 {
			return fmt.Errorf("pas entry too short")
		}
		depth, nodes := words[0], words[1]
		if depth != uint64(t.depth) || nodes != uint64(t.nodes) {
			return fmt.Errorf("pas entry shape depth=%d nodes=%d, table wants depth=%d nodes=%d",
				depth, nodes, t.depth, t.nodes)
		}
		d := t.depth
		nc := t.nodes << uint(d)
		if len(words) != 2+t.nodes+nc {
			return fmt.Errorf("pas entry has %d words, want %d", len(words), 2+t.nodes+nc)
		}
		for n, h := range words[2 : 2+t.nodes] {
			if h >= 1<<uint(d) {
				return fmt.Errorf("pas history register %d out of range [0,%d)", h, 1<<uint(d))
			}
			for j := 0; j < d; j++ {
				w[j] |= (h >> uint(j) & 1) << uint(n)
			}
		}
		for i, c := range words[2+t.nodes:] {
			if c > 3 {
				return fmt.Errorf("pas counter %d exceeds the 2-bit range", c)
			}
			n, p := i>>uint(d), i&(1<<uint(d)-1)
			w[d+2*p] |= (c & 1) << uint(n)
			w[d+2*p+1] |= (c >> 1) << uint(n)
		}
	case Sticky:
		if len(words) != 2+t.nodes {
			return fmt.Errorf("sticky entry has %d words, want %d", len(words), 2+t.nodes)
		}
		mask, trained := words[0], words[1]
		if mask&^uint64(t.all) != 0 {
			return fmt.Errorf("sticky mask %#x has bits beyond node %d", mask, t.nodes-1)
		}
		if trained > 1 {
			return fmt.Errorf("sticky trained flag %d is not boolean", trained)
		}
		if mask != 0 && trained == 0 {
			return fmt.Errorf("sticky entry has a mask but is untrained")
		}
		w[stickyMask], w[stickyTrained] = mask, trained
		for n, s := range words[2:] {
			if s >= StickyStrikes {
				return fmt.Errorf("sticky strike count %d out of range [0,%d)", s, StickyStrikes)
			}
			w[stickyStrike] |= s << uint(n)
		}
	case Last, Union, Inter:
		if len(words) < 1 {
			return fmt.Errorf("history entry has no length word")
		}
		n := words[0]
		if n == 0 || n > MaxDepth {
			return fmt.Errorf("history length %d out of range [1,%d]", n, MaxDepth)
		}
		if uint64(len(words)) != 1+n {
			return fmt.Errorf("history entry has %d words, want %d", len(words), 1+n)
		}
		e := (*HistoryEntry)(w)
		for _, b := range words[1:] {
			e.Push(bitmap.Bitmap(b))
		}
	}
	return nil
}
