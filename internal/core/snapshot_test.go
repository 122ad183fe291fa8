package core

import (
	"math/rand"
	"testing"

	"cohpredict/internal/bitmap"
)

// snapshotSchemes covers every table kind the export/import layer knows.
func snapshotSchemes() []Scheme {
	idx := IndexSpec{UseDir: true, AddrBits: 8}
	return []Scheme{
		{Fn: Last, Index: idx, Depth: 1, Update: Direct},
		{Fn: Union, Index: idx, Depth: 3, Update: Direct},
		{Fn: Inter, Index: idx, Depth: 2, Update: Direct},
		{Fn: PAs, Index: idx, Depth: 2, Update: Direct},
		{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
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

// TestExportImportRoundTrip is the contract: an imported table is
// indistinguishable from the original under any future workload.
func TestExportImportRoundTrip(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	for _, sc := range snapshotSchemes() {
		t.Run(sc.String(), func(t *testing.T) {
			orig := NewTable(sc, m)
			trainRandom(orig, m, rand.New(rand.NewSource(1)), 2000)

			entries := ExportTable(orig)
			if len(entries) == 0 {
				t.Fatal("export produced no entries from a trained table")
			}
			for i := 1; i < len(entries); i++ {
				if entries[i-1].Key >= entries[i].Key {
					t.Fatalf("exported keys not strictly increasing at %d", i)
				}
			}

			restored := NewTable(sc, m)
			if err := ImportTable(restored, entries); err != nil {
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
// (sorted order hides map iteration).
func TestExportDeterministic(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	sc := Scheme{Fn: Union, Index: IndexSpec{UseDir: true, AddrBits: 8}, Depth: 2, Update: Direct}
	tbl := NewTable(sc, m)
	trainRandom(tbl, m, rand.New(rand.NewSource(3)), 1000)
	a := ExportTable(tbl)
	b := ExportTable(tbl)
	if len(a) != len(b) {
		t.Fatalf("exports differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || len(a[i].Words) != len(b[i].Words) {
			t.Fatalf("exports differ at entry %d", i)
		}
		for j := range a[i].Words {
			if a[i].Words[j] != b[i].Words[j] {
				t.Fatalf("exports differ at entry %d word %d", i, j)
			}
		}
	}
}

func TestImportRejectsMalformedEntries(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	idx := IndexSpec{UseDir: true, AddrBits: 8}
	cases := []struct {
		name   string
		scheme Scheme
		entry  EntryState
	}{
		{"history empty", Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: nil}},
		{"key outside index", Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct},
			EntryState{Key: 1 << 40, Words: []uint64{1, 3}}},
		{"key one past index", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			EntryState{Key: 1 << 8, Words: stickyEntryWords(16, 1, 1)}},
		{"history zero length", Scheme{Fn: Last, Index: idx, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: []uint64{0}}},
		{"history length too large", Scheme{Fn: Union, Index: idx, Depth: 2, Update: Direct},
			EntryState{Key: 1, Words: []uint64{MaxDepth + 1}}},
		{"history word count mismatch", Scheme{Fn: Union, Index: idx, Depth: 2, Update: Direct},
			EntryState{Key: 1, Words: []uint64{2, 5}}},
		{"pas shape mismatch", Scheme{Fn: PAs, Index: idx, Depth: 2, Update: Direct},
			EntryState{Key: 1, Words: []uint64{3, 16}}},
		{"pas counter overflow", Scheme{Fn: PAs, Index: idx, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: pasEntryWords(16, 1, 4)}},
		{"pas hist overflow", Scheme{Fn: PAs, Index: idx, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: pasHistWords(16, 1, 2)}},
		{"sticky wrong length", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: []uint64{0, 0}}},
		{"sticky mask out of range", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: stickyEntryWords(16, 1<<40, 1)}},
		{"sticky trained non-bool", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: stickyEntryWords(16, 1, 2)}},
		{"sticky masked but untrained", Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1, Update: Direct},
			EntryState{Key: 1, Words: stickyEntryWords(16, 1, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable(tc.scheme, m)
			if err := ImportTable(tbl, []EntryState{tc.entry}); err == nil {
				t.Fatalf("import accepted malformed %s entry", tc.name)
			}
		})
	}
}

func TestImportRejectsDuplicateKeys(t *testing.T) {
	m := Machine{Nodes: 16, LineBytes: 64}
	sc := Scheme{Fn: Last, Index: IndexSpec{UseDir: true, AddrBits: 8}, Depth: 1, Update: Direct}
	tbl := NewTable(sc, m)
	es := []EntryState{
		{Key: 7, Words: []uint64{1, 3}},
		{Key: 7, Words: []uint64{1, 5}},
	}
	if err := ImportTable(tbl, es); err == nil {
		t.Fatal("import accepted a duplicated key")
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
