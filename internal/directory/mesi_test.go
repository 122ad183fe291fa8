package directory

import (
	"testing"

	"cohpredict/internal/bitmap"
)

func TestExclusiveGrantOnColdRead(t *testing.T) {
	d := New(16)
	down, ex, _ := d.ReadExclusive(3, 99, 0)
	if !ex || down != -1 {
		t.Fatalf("cold read: ex=%v down=%d", ex, down)
	}
	if d.Stats().ExclusiveGrants != 1 {
		t.Fatalf("grants = %d", d.Stats().ExclusiveGrants)
	}
	// A second reader must NOT get exclusivity, and must trigger an
	// intervention at the silent owner (which may have modified the
	// line without telling anyone).
	down, ex, _ = d.ReadExclusive(5, 99, 0)
	if ex {
		t.Fatal("second reader granted exclusivity")
	}
	if down != 3 {
		t.Fatalf("silent owner not downgraded: %d", down)
	}
}

func TestSilentEpochAttribution(t *testing.T) {
	d := New(16)
	// Node 3 gets E via load pc 99, silently writes, then node 7 reads
	// and node 9 writes.
	d.ReadExclusive(3, 99, 0)
	if down, _, _ := d.ReadExclusive(7, 50, 0); down != 3 {
		t.Fatalf("reader should downgrade silent owner 3, got %d", down)
	}
	inv := victims(d.Write(9, 200, 0))
	if len(inv) != 2 { // nodes 3 and 7 hold copies
		t.Fatalf("invalidate = %v", inv)
	}
	tr := d.Finish()
	if len(tr.Events) != 1 {
		t.Fatalf("events = %d (the silent write must not add one)", len(tr.Events))
	}
	e := tr.Events[0]
	// The closing event attributes the previous epoch to the exclusive
	// grantee and its load site.
	if !e.HasPrev || e.PrevPID != 3 || e.PrevPC != 99 {
		t.Fatalf("event = %+v", e)
	}
	if e.InvReaders != bitmap.New(7) {
		t.Fatalf("InvReaders = %v", e.InvReaders)
	}
}

func TestExclusiveGrantClosesOpenEpoch(t *testing.T) {
	d := New(16)
	d.Write(0, 10, 0)         // event 0 opens an epoch
	d.Read(2, 0)              // node 2 reads
	d.Write(1, 11, 0)         // event 1: invalidates {2} and owner 0
	d.Writeback(1, 0)         // owner 1 evicts its dirty copy: no cached copies remain
	d.ReadExclusive(4, 12, 0) // E grant closes event 1's epoch silently
	tr := d.Finish()
	// Event 1's future readers must include the grantee (it truly read).
	if got := tr.Events[1].FutureReaders; got != bitmap.New(4) {
		t.Fatalf("event 1 future readers = %v", got)
	}
}

func TestNoGrantWhileShared(t *testing.T) {
	d := New(16)
	d.Read(1, 0)
	if _, ex, _ := d.ReadExclusive(2, 9, 0); ex {
		t.Fatal("grant despite existing sharer")
	}
}
