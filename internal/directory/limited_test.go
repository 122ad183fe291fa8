package directory

import (
	"testing"

	"cohpredict/internal/bitmap"
)

func TestLimitedWithinPointersActsLikeFullMap(t *testing.T) {
	full := New(16)
	lim := NewLimited(16, 4)
	for _, d := range []*Directory{full, lim} {
		d.Write(0, 1, 0)
		d.Read(1, 0)
		d.Read(2, 0)
	}
	fInv := victims(full.Write(5, 2, 0))
	lInv := victims(lim.Write(5, 2, 0))
	if len(fInv) != len(lInv) {
		t.Fatalf("full %v vs limited %v", fInv, lInv)
	}
	if lim.Stats().Broadcasts != 0 {
		t.Fatal("broadcast without overflow")
	}
}

func TestLimitedOverflowBroadcasts(t *testing.T) {
	d := NewLimited(16, 2)
	d.Write(0, 1, 0)
	for pid := 1; pid <= 5; pid++ {
		d.Read(pid, 0) // 6 sharers incl. owner > 2 pointers
	}
	inv := victims(d.Write(7, 2, 0))
	// Broadcast: every node except the writer gets an invalidation.
	if len(inv) != 15 {
		t.Fatalf("broadcast victims = %d, want 15", len(inv))
	}
	st := d.Stats()
	if st.Broadcasts != 1 {
		t.Fatalf("broadcasts = %d", st.Broadcasts)
	}
	// Feedback stays exact despite the broadcast (access bits).
	tr := d.Finish()
	if got := tr.Events[1].InvReaders; got != bitmap.New(1, 2, 3, 4, 5) {
		t.Fatalf("InvReaders = %v", got)
	}
}

func TestLimitedFeedbackEqualsFullMap(t *testing.T) {
	// The prediction trace must be identical under both organisations:
	// only the message traffic differs.
	run := func(d *Directory) []bitmap.Bitmap {
		d.Write(0, 1, 0)
		for pid := 1; pid < 9; pid++ {
			d.Read(pid, 0)
		}
		d.Write(9, 2, 0)
		d.Read(3, 0)
		d.Write(0, 1, 0)
		tr := d.Finish()
		var out []bitmap.Bitmap
		for _, e := range tr.Events {
			out = append(out, e.InvReaders, e.FutureReaders)
		}
		return out
	}
	a := run(New(16))
	b := run(NewLimited(16, 3))
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feedback %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestModeAccessors(t *testing.T) {
	if d := New(8); d.mode != FullMap || d.pointers != 0 {
		t.Fatal("full-map organisation wrong")
	}
	d := NewLimited(8, 3)
	if d.mode != LimitedPointer || d.pointers != 3 {
		t.Fatal("limited organisation wrong")
	}
	if FullMap.String() == "" || LimitedPointer.String() == "" || Mode(9).String() == "" {
		t.Fatal("Mode.String broken")
	}
}

func TestNewLimitedPanicsOnBadPointers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pointers=0 accepted")
		}
	}()
	NewLimited(16, 0)
}
