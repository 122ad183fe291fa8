package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
)

// testEntry is one entry of a section, decoded for a test to inspect or
// built by a test to import.
type testEntry struct {
	Key   uint64
	Words []uint64
}

// encodeSection writes entries as an entry section, verbatim: whatever
// keys and words they hold, well-formed or not.
func encodeSection(entries []testEntry) []byte {
	b := codec.AppendUvarint(nil, uint64(len(entries)))
	prev := uint64(0)
	for _, e := range entries {
		b = codec.AppendUvarint(b, e.Key-prev)
		prev = e.Key
		b = codec.AppendUvarint(b, uint64(len(e.Words)))
		for _, w := range e.Words {
			b = codec.AppendUvarint(b, w)
		}
	}
	return b
}

// decodeSection reads an entry section back into entries.
func decodeSection(t *testing.T, sec []byte) []testEntry {
	t.Helper()
	r := codec.NewReader(sec)
	n := r.Count(1<<30, 2)
	out := make([]testEntry, n)
	prev := uint64(0)
	for i := range out {
		out[i].Key = prev + r.Uvarint()
		prev = out[i].Key
		out[i].Words = make([]uint64, r.Count(1<<30, 1))
		for j := range out[i].Words {
			out[i].Words[j] = r.Uvarint()
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("decoding an appended section: %v", err)
	}
	return out
}

// entryWords returns the words AppendEntries writes for key's entry, or
// nil if the table has none.
func entryWords(t *testing.T, tab *FlatTable, key uint64) []uint64 {
	t.Helper()
	for _, e := range decodeSection(t, AppendEntries(nil, tab)) {
		if e.Key == key {
			return e.Words
		}
	}
	return nil
}

// importOne imports a section into one table.
func importOne(tab *FlatTable, entries []testEntry) error {
	return ImportEntries(encodeSection(entries), tab)
}

// snapshotSchemes covers every table kind the export/import layer knows,
// and PAs at the depths whose history registers reach bits 2 and 3.
func snapshotSchemes() []Scheme {
	idx := IndexSpec{UseDir: true, AddrBits: 8}
	return []Scheme{
		{Fn: Last, Index: idx, Depth: 1, Update: Direct},
		{Fn: Union, Index: idx, Depth: 3, Update: Direct},
		{Fn: Inter, Index: idx, Depth: 2, Update: Direct},
		{Fn: PAs, Index: idx, Depth: 2, Update: Direct},
		{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
		{Fn: PAs, Index: idx, Depth: 3, Update: Direct},
		{Fn: PAs, Index: idx, Depth: 4, Update: Direct},
	}
}

// trainRandom drives n random train/predict pairs through the table using
// a bounded key space so entries accumulate real history.
func trainRandom(t Table, m Machine, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		key := uint64(rng.Intn(64))
		t.Train(key, bitmap.Bitmap(rng.Uint64())&bitmap.Full(m.Nodes))
		t.Predict(key)
	}
}

// TestExportImportRoundTrip is the contract: a table imported from the
// section AppendEntries wrote is indistinguishable from the original
// under any future workload.
func TestExportImportRoundTrip(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	for _, sc := range snapshotSchemes() {
		t.Run(sc.String(), func(t *testing.T) {
			orig := NewTable(sc, m)
			trainRandom(orig, m, rand.New(rand.NewSource(1)), 2000)

			sec := AppendEntries(nil, orig)
			entries := decodeSection(t, sec)
			if len(entries) == 0 {
				t.Fatal("export produced no entries from a trained table")
			}
			for i := 1; i < len(entries); i++ {
				if entries[i-1].Key >= entries[i].Key {
					t.Fatalf("exported keys not strictly increasing at %d", i)
				}
			}

			if n, err := EntriesLen(append(sec, 0xee)); err != nil || n != len(sec) {
				t.Fatalf("EntriesLen = %d, %v; want %d", n, err, len(sec))
			}
			restored := NewTable(sc, m)
			if err := ImportEntries(sec, restored); err != nil {
				t.Fatalf("import: %v", err)
			}
			if restored.Entries() != orig.Entries() {
				t.Fatalf("restored table has %d entries, original %d", restored.Entries(), orig.Entries())
			}

			// Same future workload, same predictions — before and after
			// further training.
			for key := uint64(0); key < 64; key++ {
				if got, want := restored.Predict(key), orig.Predict(key); got != want {
					t.Fatalf("key %d predicts %x after restore, original %x", key, got, want)
				}
			}
			ra, rb := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
			trainRandom(orig, m, ra, 500)
			trainRandom(restored, m, rb, 500)
			for key := uint64(0); key < 64; key++ {
				if got, want := restored.Predict(key), orig.Predict(key); got != want {
					t.Fatalf("key %d diverged after post-restore training: %x vs %x", key, got, want)
				}
			}
		})
	}
}

// TestExportDeterministic: two exports of the same table are identical
// (key order hides slot order).
func TestExportDeterministic(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	sc := Scheme{Fn: Union, Index: IndexSpec{UseDir: true, AddrBits: 8}, Depth: 2, Update: Direct}
	tbl := NewTable(sc, m)
	trainRandom(tbl, m, rand.New(rand.NewSource(3)), 1000)
	a := AppendEntries(nil, tbl)
	b := AppendEntries(nil, tbl)
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of one table differ")
	}
}

func TestImportRejectsMalformedEntries(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	idx := IndexSpec{UseDir: true, AddrBits: 8}
	cases := []struct {
		name   string
		scheme Scheme
		entry  testEntry
	}{
		{"history empty", Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: nil}},
		{"key outside index", Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct},
			testEntry{Key: 1 << 40, Words: []uint64{1, 3}}},
		{"key one past index", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			testEntry{Key: 1 << 8, Words: stickyEntryWords(16, 1, 1)}},
		{"history zero length", Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: []uint64{0}}},
		{"history length too large", Scheme{Fn: Union, Index: idx, Depth: 2, Update: Direct},
			testEntry{Key: 1, Words: []uint64{MaxDepth + 1}}},
		{"history word count mismatch", Scheme{Fn: Union, Index: idx, Depth: 2, Update: Direct},
			testEntry{Key: 1, Words: []uint64{2, 5}}},
		{"pas shape mismatch", Scheme{Fn: PAs, Index: idx, Depth: 2, Update: Direct},
			testEntry{Key: 1, Words: []uint64{3, 16}}},
		{"pas counter overflow", Scheme{Fn: PAs, Index: idx, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: pasEntryWords(16, 1, 4)}},
		{"pas hist overflow", Scheme{Fn: PAs, Index: idx, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: pasHistWords(16, 1, 2)}},
		{"sticky wrong length", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: []uint64{0, 0}}},
		{"sticky mask out of range", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: stickyEntryWords(16, 1<<40, 1)}},
		{"sticky trained non-bool", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: stickyEntryWords(16, 1, 2)}},
		{"sticky masked but untrained", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			testEntry{Key: 1, Words: stickyEntryWords(16, 1, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable(tc.scheme, m)
			if err := importOne(tbl, []testEntry{tc.entry}); err == nil {
				t.Fatalf("import accepted malformed %s entry", tc.name)
			}
		})
	}
}

func TestImportRejectsDuplicateKeys(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	sc := Scheme{Fn: Last, Index: IndexSpec{UseDir: true, AddrBits: 8}, Depth: 1, Update: Direct}
	tbl := NewTable(sc, m)
	es := []testEntry{
		{Key: 7, Words: []uint64{1, 3}},
		{Key: 7, Words: []uint64{1, 5}},
	}
	if err := importOne(tbl, es); err == nil {
		t.Fatal("import accepted a duplicated key")
	}
}

// TestImportBoundsEntryCount: a section claiming as many entries as its
// bytes hold at two bytes each (a key delta and a word count of 0) is
// refused before any table is sized for them, for every table kind, into
// one table, allocating less than the section's own size.
func TestImportBoundsEntryCount(t *testing.T) {
	const n = 1 << 18
	sec := codec.AppendUvarint(nil, n)
	for i := 0; i < n; i++ {
		sec = append(sec, 1, 0)
	}
	m := Machine{Nodes: 16, LineBytes: 64}
	for _, sc := range snapshotSchemes() {
		t.Run(sc.String(), func(t *testing.T) {
			one := NewTable(sc, m)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ImportEntries(sec, one)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(sec)) {
				t.Fatalf("refusing a %d-byte section allocated %d bytes", len(sec), got)
			}
			if !errors.Is(err, codec.ErrCount) {
				t.Fatalf("import: %v; want %v", err, codec.ErrCount)
			}
		})
	}
}

// pasEntryWords builds a well-shaped PAS entry with every counter set to c.
func pasEntryWords(nodes, depth int, c uint64) []uint64 {
	w := []uint64{uint64(depth), uint64(nodes)}
	for i := 0; i < nodes; i++ {
		w = append(w, 0)
	}
	for i := 0; i < nodes<<depth; i++ {
		w = append(w, c)
	}
	return w
}

// pasHistWords builds a well-shaped PAS entry with every history register
// set to h.
func pasHistWords(nodes, depth int, h uint64) []uint64 {
	w := []uint64{uint64(depth), uint64(nodes)}
	for i := 0; i < nodes; i++ {
		w = append(w, h)
	}
	for i := 0; i < nodes<<depth; i++ {
		w = append(w, 0)
	}
	return w
}

// stickyEntryWords builds a sticky entry with the given mask and trained flag
// and zero strikes.
func stickyEntryWords(nodes int, mask, trained uint64) []uint64 {
	w := []uint64{mask, trained}
	for i := 0; i < nodes; i++ {
		w = append(w, 0)
	}
	return w
}

// TestSectionRejects feeds ImportEntries and EntriesLen sections broken
// in every way their checks name. Each must fail, and EntriesLen must
// fail on the structural ones.
func TestSectionRejects(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	idx := IndexSpec{UseDir: true, AddrBits: 8}
	last := Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct}
	pas := Scheme{Fn: PAs, Index: idx, Depth: 2, Update: Direct}
	sticky := Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct}
	one := func(words ...uint64) []byte { return encodeSection([]testEntry{{Key: 1, Words: words}}) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name       string
		scheme     Scheme
		sec        []byte
		structural bool // EntriesLen rejects it too
	}{
		{"empty", last, nil, true},
		{"non-minimal count", last, []byte{0x81, 0x00}, true},
		{"count over the input", last, []byte{2, 1, 2, 1, 3}, true},
		{"truncated key", last, []byte{1, 0x80, 0x80}, true},
		{"truncated word count", last, []byte{1, 1, 0x80}, true},
		{"word count over the input", last, []byte{1, 1, 9, 1}, true},
		{"non-minimal word", last, cat([]byte{1, 1, 2, 1}, []byte{0x83, 0x00}), true},
		{"trailing bytes", last, append(one(1, 3), 0), false},
		{"key order", last, encodeSection([]testEntry{{Key: 5, Words: []uint64{1, 3}}, {Key: 4, Words: []uint64{1, 3}}}), false},
		{"key delta overflow", last, cat([]byte{2}, []byte{1, 2, 1, 3}, codec.AppendUvarint(nil, 1<<64-1), []byte{2, 1, 3}), false},
		{"history truncated bitmap", last, []byte{1, 1, 2, 1, 0x80}, true},
		{"history truncated length", last, []byte{1, 1, 2, 0x80}, true},
		{"history non-minimal count", last, []byte{1, 1, 0x82, 0x00, 1, 3}, true},
		{"pas truncated", pas, cat([]byte{1, 1}, codec.AppendUvarint(nil, 2+16+64), []byte{2, 16}), true},
		{"sticky truncated mask", sticky, []byte{1, 1, 18, 0x80}, true},
		{"sticky truncated strikes", sticky, []byte{1, 1, 18, 1, 1, 0, 0}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ImportEntries(tc.sec, NewTable(tc.scheme, m)); err == nil {
				t.Error("accepted")
			}
			if _, err := EntriesLen(tc.sec); (err != nil) != tc.structural {
				t.Errorf("EntriesLen error %v, structural %v", err, tc.structural)
			}
		})
	}
}

// refSection is the decoder the entry kernels replaced, kept as their
// oracle: the section read with codec.Reader into per-entry words, keys
// strictly increasing, and the bytes it took. It makes only the
// structural checks.
func refSection(sec []byte) ([]testEntry, int, error) {
	r := codec.NewReader(sec)
	n := r.Count(math.MaxInt, 2)
	var entries []testEntry
	prev := uint64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.Uvarint()
		words := make([]uint64, r.Count(math.MaxInt, 1))
		for j := range words {
			words[j] = r.Uvarint()
		}
		if i > 0 {
			key += prev
		}
		entries = append(entries, testEntry{Key: key, Words: words})
		prev = key
	}
	return entries, len(sec) - len(r.Rest()), r.Err()
}

// refImport checks a section as the replaced importer did: structure,
// keys strictly increasing without overflow and inside the index, the
// whole input taken, and each entry's words against the table's shape.
func refImport(t *FlatTable, sec []byte) error {
	entries, n, err := refSection(sec)
	if err != nil {
		return err
	}
	if n != len(sec) {
		return codec.ErrTrailing
	}
	for i, e := range entries {
		if i > 0 && (e.Key <= entries[i-1].Key) {
			return errKeyOrder // a zero delta, or one that wrapped around
		}
		if e.Key>>uint(t.keyBits) != 0 {
			return errKeyRange
		}
		if err := refWords(t, e.Words); err != nil {
			return err
		}
	}
	return nil
}

// refWords is the replaced importer's check of one entry's words.
func refWords(t *FlatTable, words []uint64) error {
	switch t.fn {
	case PAs:
		if len(words) != 2+t.nodes+t.nodes<<uint(t.depth) || words[0] != uint64(t.depth) || words[1] != uint64(t.nodes) {
			return errPASShape
		}
		for _, h := range words[2 : 2+t.nodes] {
			if h >= 1<<uint(t.depth) {
				return errPASHistory
			}
		}
		for _, c := range words[2+t.nodes:] {
			if c > 3 {
				return errPASCounter
			}
		}
	case Sticky:
		if len(words) != 2+t.nodes {
			return errStickyShape
		}
		mask, trained := words[0], words[1]
		switch {
		case mask&^uint64(t.all) != 0:
			return errStickyMask
		case trained > 1:
			return errStickyTrained
		case mask != 0 && trained == 0:
			return errStickyMasked
		}
		for _, s := range words[2:] {
			if s >= StickyStrikes {
				return errStickyStrike
			}
		}
	case Last, Union, Inter:
		if len(words) < 1 || words[0] == 0 || words[0] > MaxDepth {
			return errHistoryLen
		}
		if uint64(len(words)) != 1+words[0] {
			return errHistoryWords
		}
	}
	return nil
}

// TestCheckEntries: CheckEntries refuses what ImportEntries refuses, with
// its error, and accepts what it accepts, without a table: it allocates
// the same few times for a section of 64 entries as for one that fills
// the index (4096 keys, or 256 for the sticky scheme).
func TestCheckEntries(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	for _, sc := range snapshotSchemes() {
		allocs := make([]float64, 2)
		for i, keys := range []int{64, 1 << sc.Index.Bits(m)} {
			tab := NewTable(sc, m)
			rng := rand.New(rand.NewSource(int64(keys)))
			for j := 0; j < 4*keys; j++ {
				tab.Train(uint64(rng.Intn(keys)), bitmap.Bitmap(rng.Uint64())&bitmap.Full(m.Nodes))
			}
			sec := AppendEntries(nil, tab)
			if err := CheckEntries(sec, sc, m); err != nil {
				t.Fatalf("%v: CheckEntries refused a table's own section: %v", sc, err)
			}
			bad := append(slices.Clone(sec), 0)
			want := ImportEntries(bad, NewTable(sc, m))
			if err := CheckEntries(bad, sc, m); want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("%v: CheckEntries of a section with a trailing byte: %v, ImportEntries: %v", sc, err, want)
			}
			allocs[i] = testing.AllocsPerRun(5, func() { _ = CheckEntries(sec, sc, m) })
		}
		if allocs[0] != allocs[1] || allocs[1] > 2 {
			t.Fatalf("%v: CheckEntries allocates %v times at 64 entries and %v at the index's size, want the same, at most 2", sc, allocs[0], allocs[1])
		}
	}
	if err := CheckEntries([]byte{0}, Scheme{Fn: Last, Depth: 1, Index: IndexSpec{PCBits: 62, AddrBits: 4, UsePID: true}}, m); err == nil {
		t.Fatal("CheckEntries accepted a scheme whose index does not fit the machine")
	}
}

// FuzzImportEntries checks the entry kernels against codec.Reader and
// the replaced importer's checks: EntriesLen accepts what a Reader walk
// of the structure accepts and finds the same end, ImportEntries accepts
// exactly what refImport does, and a section it accepts is canonical —
// the table writes it back bit for bit.
func FuzzImportEntries(f *testing.F) {
	m := Machine{Nodes: 16, LineBytes: 64}
	for i, sc := range snapshotSchemes() {
		tab := NewTable(sc, m)
		trainRandom(tab, m, rand.New(rand.NewSource(int64(i))), 300)
		sec := AppendEntries(nil, tab)
		f.Add(uint8(i), sec)
		f.Add(uint8(i), sec[:len(sec)-1])
		f.Add(uint8(i), append(sec, 0))
	}
	f.Add(uint8(0), []byte{2, 5, 2, 1, 3, 0, 2, 1, 3})
	f.Add(uint8(4), []byte{1, 1, 18, 0x81, 0x00, 1})
	f.Fuzz(func(t *testing.T, kind uint8, sec []byte) {
		sc := snapshotSchemes()[int(kind)%len(snapshotSchemes())]
		_, wantLen, wantErr := refSection(sec)
		if n, err := EntriesLen(sec); (err == nil) != (wantErr == nil) || (err == nil && n != wantLen) {
			t.Fatalf("EntriesLen = %d, %v; a Reader walk takes %d bytes, %v", n, err, wantLen, wantErr)
		}
		one := NewTable(sc, m)
		want := refImport(one, sec)
		err := ImportEntries(sec, one)
		if (err == nil) != (want == nil) {
			t.Fatalf("ImportEntries error %v, the replaced importer's %v", err, want)
		}
		if cerr := CheckEntries(sec, sc, m); fmt.Sprint(cerr) != fmt.Sprint(err) {
			t.Fatalf("CheckEntries error %v, ImportEntries' %v", cerr, err)
		}
		if err != nil {
			return
		}
		if got := AppendEntries(nil, one); !bytes.Equal(got, sec) {
			t.Fatalf("accepted section is not canonical: %x writes back as %x", sec, got)
		}
	})
}
