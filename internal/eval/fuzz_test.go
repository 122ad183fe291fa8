package eval

import (
	"bytes"
	"testing"

	"cohpredict/internal/core"
)

// FuzzDecodeSnapshot drives the snapshot wire decoder with arbitrary
// bytes: it must never panic, anything it accepts must re-encode bit for
// bit and be safe to restore — NewEngineFromSnapshot may reject an
// accepted snapshot (entry words that don't fit the scheme's table
// shape, keys out of order) but must never panic either — and anything
// it restores must be canonical: the restored engine's own snapshot,
// with the same Extra section, is the input again.
// Seeded from real snapshots of every table kind plus the handcrafted
// corpus under testdata/fuzz/FuzzDecodeSnapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	tr := chainTrace(16, 32, 800, 3)
	for _, s := range []string{
		"last(dir+add8)1[direct]",
		"union(pid+pc8)3[forwarded]",
		"inter(dir+add6)2[ordered]",
		"pas(dir+add6)2[direct]",
		"sticky(add8)1[direct]",
	} {
		sc, err := core.ParseScheme(s)
		if err != nil {
			f.Fatal(err)
		}
		e := NewEngine(sc, m16)
		e.Run(tr)
		snap := e.Snapshot()
		f.Add(EncodeSnapshot(snap))
		snap.Extra = []byte("opaque serve-layer extra")
		f.Add(EncodeSnapshot(snap))
	}
	// A key beyond the 12-bit last(dir+add8)1 index: decode accepts it,
	// restore errors.
	sc, err := core.ParseScheme("last(dir+add8)1[direct]")
	if err != nil {
		f.Fatal(err)
	}
	far := NewEngine(sc, m16).Snapshot()
	far.entries = appendEntry(f, far.entries, 1<<40, 1, 3)
	f.Add(EncodeSnapshot(far))
	f.Add([]byte{})
	f.Add([]byte("COHSNAP1"))
	f.Add([]byte("COHSNAPX\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if got := EncodeSnapshot(snap); !bytes.Equal(got, data) {
			t.Fatalf("accepted input is not canonical: decode→encode changed %d bytes to %d", len(data), len(got))
		}
		// A structurally-valid snapshot either restores into a working
		// engine or errors cleanly; panics are the bug class under test.
		if eng, err := NewEngineFromSnapshot(snap); err == nil {
			if eng.events() != snap.Events {
				t.Fatalf("restored engine at %d events, snapshot says %d", eng.events(), snap.Events)
			}
			if eng.Confusion() != snap.Conf {
				t.Fatal("restored tallies differ from the snapshot's")
			}
			again := eng.Snapshot()
			again.Extra = snap.Extra
			if got := EncodeSnapshot(again); !bytes.Equal(got, data) {
				t.Fatalf("restored snapshot is not canonical: it snapshots %d bytes back to %d", len(data), len(got))
			}
		}
	})
}
