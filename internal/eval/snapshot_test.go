package eval

import (
	"bytes"
	"math"
	"testing"

	"cohpredict/internal/codec"
	"cohpredict/internal/core"
)

// snapshotTestSchemes spans every table kind and update mechanism the
// codec must carry.
func snapshotTestSchemes(t *testing.T) []core.Scheme {
	return []core.Scheme{
		mustParse(t, "last(dir+add8)[direct]"),
		mustParse(t, "union(dir+add8)3[forwarded]"),
		mustParse(t, "inter(pid+dir+add8)2[ordered]"),
		mustParse(t, "pas(dir+add8)2[direct]"),
		mustParse(t, "sticky(add8)[direct]"),
	}
}

// TestSnapshotResumeEquivalence is the whole point of checkpoint/restore:
// run a trace halfway, snapshot, restore into a fresh engine, finish the
// trace on both — predictions and tallies must match event for event.
func TestSnapshotResumeEquivalence(t *testing.T) {
	tr := chainTrace(16, 96, 4000, 77)
	half := len(tr.Events) / 2
	for _, sc := range snapshotTestSchemes(t) {
		t.Run(sc.FullString(), func(t *testing.T) {
			golden := NewEngine(sc, m16)
			resumed := NewEngine(sc, m16)
			for _, ev := range tr.Events[:half] {
				golden.Step(ev)
				resumed.Step(ev)
			}
			snap := resumed.Snapshot()
			// Through the wire form, as the service would.
			decoded, err := DecodeSnapshot(EncodeSnapshot(snap))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			restored, err := NewEngineFromSnapshot(decoded)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if restored.events() != golden.events() {
				t.Fatalf("restored engine at %d events, want %d", restored.events(), golden.events())
			}
			for i, ev := range tr.Events[half:] {
				if got, want := restored.Step(ev), golden.Step(ev); got != want {
					t.Fatalf("event %d after restore: predicted %x, golden %x", half+i, got, want)
				}
			}
			if restored.Confusion() != golden.Confusion() {
				t.Fatalf("final tallies diverged: %+v vs %+v", restored.Confusion(), golden.Confusion())
			}
			if restored.table.Entries() != golden.table.Entries() {
				t.Fatalf("table entries diverged: %d vs %d", restored.table.Entries(), golden.table.Entries())
			}
		})
	}
}

// TestSnapshotEncodingCanonical: encoding is stable, and decoding inverts
// it exactly (the fuzz target extends this to arbitrary accepted inputs).
func TestSnapshotEncodingCanonical(t *testing.T) {
	tr := chainTrace(16, 64, 3000, 5)
	e := NewEngine(mustParse(t, "union(dir+add8)2[direct]"), m16)
	e.Run(tr)
	snap := e.Snapshot()
	snap.Extra = []byte("opaque serving-layer state")

	a := EncodeSnapshot(snap)
	b := EncodeSnapshot(snap)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one snapshot differ")
	}
	dec, err := DecodeSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeSnapshot(dec), a) {
		t.Fatal("decode→encode is not the identity on an encoded snapshot")
	}
	if dec.Events != snap.Events || dec.Conf != snap.Conf || !bytes.Equal(dec.Extra, snap.Extra) {
		t.Fatal("decoded snapshot fields differ from the original")
	}
}

func TestDecodeSnapshotRejects(t *testing.T) {
	e := NewEngine(mustParse(t, "last(dir+add8)[direct]"), m16)
	e.Run(chainTrace(16, 32, 500, 9))
	snap := e.Snapshot()
	good := EncodeSnapshot(snap)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("COHSNAPX"), good[8:]...)},
		{"truncated header", good[:10]},
		{"truncated entries", good[:len(good)-3]},
		{"trailing bytes", append(append([]byte{}, good...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(tc.data); err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
		})
	}

	// Tally consistency: TP+FP+TN+FN must equal events*nodes.
	bad := *snap
	bad.Conf.TP++
	if _, err := DecodeSnapshot(EncodeSnapshot(&bad)); err == nil {
		t.Fatal("decode accepted inconsistent tallies")
	}

	// Semantic scheme errors surface at decode, not restore.
	bad = *snap
	bad.Scheme.Depth = 99
	if _, err := DecodeSnapshot(EncodeSnapshot(&bad)); err == nil {
		t.Fatal("decode accepted an invalid scheme")
	}
	bad = *snap
	bad.Machine.Nodes = 65
	if _, err := DecodeSnapshot(EncodeSnapshot(&bad)); err == nil {
		t.Fatal("decode accepted an oversized machine")
	}
}

// TestRestoreRejectsForeignEntries: a structurally-valid snapshot whose
// entry words do not fit the scheme's table shape fails at restore.
func TestRestoreRejectsForeignEntries(t *testing.T) {
	e := NewEngine(mustParse(t, "pas(dir+add8)2[direct]"), m16)
	e.Run(chainTrace(16, 32, 500, 11))
	snap := e.Snapshot()
	// Rewrite the scheme to a different table kind; the PAS-shaped words
	// no longer parse as history entries.
	snap.Scheme = mustParse(t, "union(dir+add8)2[direct]")
	if _, err := NewEngineFromSnapshot(snap); err == nil {
		t.Fatal("restore accepted entries shaped for a different table kind")
	}
}

// TestRestoreRejectsKeysOutsideIndex: a snapshot entry keyed beyond the
// scheme's index decodes (the codec does not know index widths) but fails
// at restore, instead of restoring an entry no event can reach and
// re-exporting it in every later snapshot.
func TestRestoreRejectsKeysOutsideIndex(t *testing.T) {
	e := NewEngine(mustParse(t, "last(dir+add8)1[direct]"), m16)
	e.Run(chainTrace(16, 32, 500, 13))
	snap := e.Snapshot()
	snap.entries = appendEntry(t, snap.entries, 1<<40, 1, 3)
	dec, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatalf("decode rejected a well-formed snapshot: %v", err)
	}
	if _, err := NewEngineFromSnapshot(dec); err == nil {
		t.Fatal("restore accepted a key outside the 12-bit index")
	}
}

// appendEntry returns the entry section sec with one more entry, of key
// (above every key in sec) and words, at its end.
func appendEntry(t testing.TB, sec []byte, key uint64, words ...uint64) []byte {
	t.Helper()
	r := codec.NewReader(sec)
	n := r.Count(math.MaxInt, 2)
	last := uint64(0)
	for i := 0; i < n; i++ {
		last += r.Uvarint()
		for c := r.Count(math.MaxInt, 1); c > 0; c-- {
			r.Uvarint()
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	out := codec.AppendUvarint(nil, uint64(n+1))
	out = append(out, sec[codec.UvarintLen(uint64(n)):]...)
	out = codec.AppendUvarint(out, key-last)
	out = codec.AppendUvarint(out, uint64(len(words)))
	for _, w := range words {
		out = codec.AppendUvarint(out, w)
	}
	return out
}

// TestRestoreRejectsIndexWiderThanKey: a scheme whose index fits a key
// on no machine this snapshot names fails at restore, not with a panic.
func TestRestoreRejectsIndexWiderThanKey(t *testing.T) {
	snap := NewEngine(mustParse(t, "last(pid+pc55+dir)1"), m16).Snapshot()
	snap.Scheme.Index.AddrBits = 4 // 67 bits on 16 nodes
	if _, err := NewEngineFromSnapshot(snap); err == nil {
		t.Fatal("restore accepted a 67-bit index")
	}
}

// TestWarmStepAllocFree: once its entries exist, Engine.Step allocates
// nothing, for every table kind.
func TestWarmStepAllocFree(t *testing.T) {
	tr := chainTrace(16, 32, 2000, 17)
	for _, s := range []string{
		"last(dir+add8)1", "union(pid+dir+add6)3[forwarded]", "inter(pc6+add4)4[ordered]",
		"pas(pid+add6)2", "pas(dir+add4)4[forwarded]", "sticky(dir+add8)1",
	} {
		t.Run(s, func(t *testing.T) {
			eng := NewEngine(mustParse(t, s), m16)
			eng.Run(tr)
			if allocs := testing.AllocsPerRun(5, func() { eng.Run(tr) }); allocs != 0 {
				t.Fatalf("warm Step allocated %v times per pass", allocs)
			}
		})
	}
}
