package directory

import (
	"testing"

	"cohpredict/internal/bitmap"
)

const line = 64

// sharersOf returns the directory's current sharer view of a block.
func sharersOf(d *Directory, addr uint64) bitmap.Bitmap {
	if st := d.find(addr); st != nil {
		return st.sharers
	}
	return bitmap.Empty
}

// homeOf returns the block's home node, assigning it to pid, the first
// toucher, if the block is new.
func homeOf(d *Directory, addr uint64, pid int) int { return d.lookup(addr, pid).home }

// victims lists the nodes a Write invalidates.
func victims(inv bitmap.Bitmap, _ int) []int { return inv.Nodes() }

func TestFirstTouchHome(t *testing.T) {
	d := New(16)
	if got := homeOf(d, 0x1000, 5); got != 5 {
		t.Fatalf("Home = %d, want first toucher 5", got)
	}
	// Home is sticky regardless of later touchers.
	if got := homeOf(d, 0x1000, 9); got != 5 {
		t.Fatalf("Home changed to %d", got)
	}
}

func TestWriteEventSequence(t *testing.T) {
	d := New(16)
	// Node 0 writes block, nodes 1 and 2 read it, node 3 writes.
	if inv := victims(d.Write(0, 100, 0)); len(inv) != 0 {
		t.Fatalf("cold write invalidates %v", inv)
	}
	if down, _ := d.Read(1, 0); down != 0 {
		t.Fatalf("first reader should downgrade owner 0, got %d", down)
	}
	if down, _ := d.Read(2, 0); down != -1 {
		t.Fatalf("second reader downgrade = %d, want -1", down)
	}
	inv := victims(d.Write(3, 200, 0))
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(inv) != 3 {
		t.Fatalf("invalidate = %v", inv)
	}
	for _, n := range inv {
		if !want[n] {
			t.Fatalf("unexpected victim %d", n)
		}
	}
	tr := d.Finish()
	if len(tr.Events) != 2 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	e0, e1 := tr.Events[0], tr.Events[1]
	// First event: cold write by 0, no previous writer.
	if e0.PID != 0 || e0.HasPrev || !e0.InvReaders.IsEmpty() {
		t.Fatalf("event 0 = %+v", e0)
	}
	// Its future readers are nodes 1,2 (owner 0 excluded by definition).
	if e0.FutureReaders != bitmap.New(1, 2) {
		t.Fatalf("event 0 future readers = %v", e0.FutureReaders)
	}
	// Second event: writer 3 invalidating readers {1,2} of writer 0.
	if e1.PID != 3 || !e1.HasPrev || e1.PrevPID != 0 || e1.PrevPC != 100 {
		t.Fatalf("event 1 = %+v", e1)
	}
	if e1.InvReaders != bitmap.New(1, 2) {
		t.Fatalf("event 1 inv readers = %v", e1.InvReaders)
	}
	// Epoch still open at Finish: no readers after event 1.
	if !e1.FutureReaders.IsEmpty() {
		t.Fatalf("event 1 future readers = %v", e1.FutureReaders)
	}
}

func TestInvReadersEqualsOpenersFutureReaders(t *testing.T) {
	d := New(8)
	d.Write(0, 1, 0)
	d.Read(3, 0)
	d.Write(1, 2, 0)
	d.Read(4, 0)
	d.Read(5, 0)
	d.Write(2, 3, 0)
	tr := d.Finish()
	if len(tr.Events) != 3 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	for i := 0; i+1 < len(tr.Events); i++ {
		if tr.Events[i].FutureReaders != tr.Events[i+1].InvReaders {
			t.Errorf("event %d future %v != event %d inv %v",
				i, tr.Events[i].FutureReaders, i+1, tr.Events[i+1].InvReaders)
		}
	}
}

func TestOwnerNotCountedAsReader(t *testing.T) {
	d := New(8)
	d.Write(0, 1, 0)
	// Owner re-reads its own block after a writeback.
	d.Writeback(0, 0)
	d.Read(0, 0)
	d.Read(2, 0)
	d.Write(1, 2, 0)
	tr := d.Finish()
	// InvReaders of the closing event must exclude the epoch's writer 0
	// even though it technically re-read.
	if got := tr.Events[1].InvReaders; got != bitmap.New(2) {
		t.Fatalf("InvReaders = %v, want {2}", got)
	}
}

func TestColdReadsThenWrite(t *testing.T) {
	d := New(8)
	d.Read(1, 0)
	d.Read(2, 0)
	inv := victims(d.Write(3, 9, 0))
	if len(inv) != 2 {
		t.Fatalf("invalidate = %v", inv)
	}
	tr := d.Finish()
	e := tr.Events[0]
	if e.HasPrev {
		t.Fatal("cold epoch reported a previous writer")
	}
	if e.InvReaders != bitmap.New(1, 2) {
		t.Fatalf("InvReaders = %v", e.InvReaders)
	}
}

func TestSameWriterReinvalidatesOwnReaders(t *testing.T) {
	d := New(8)
	d.Write(0, 7, 0)
	d.Read(1, 0)
	inv := victims(d.Write(0, 7, 0)) // same writer upgrades again
	if len(inv) != 1 || inv[0] != 1 {
		t.Fatalf("invalidate = %v", inv)
	}
	tr := d.Finish()
	e := tr.Events[1]
	if !e.HasPrev || e.PrevPID != 0 {
		t.Fatalf("event = %+v", e)
	}
	if e.InvReaders != bitmap.New(1) {
		t.Fatalf("InvReaders = %v", e.InvReaders)
	}
}

func TestWritebackClearsSharer(t *testing.T) {
	d := New(8)
	d.Write(0, 1, 0)
	if got := sharersOf(d, 0); got != bitmap.New(0) {
		t.Fatalf("sharers = %v", got)
	}
	d.Writeback(0, 0)
	if got := sharersOf(d, 0); !got.IsEmpty() {
		t.Fatalf("sharers after writeback = %v", got)
	}
	// Next writer invalidates nobody but still knows the previous
	// writer for forwarded update.
	inv := victims(d.Write(1, 2, 0))
	if len(inv) != 0 {
		t.Fatalf("invalidate = %v", inv)
	}
	tr := d.Finish()
	if e := tr.Events[1]; !e.HasPrev || e.PrevPID != 0 {
		t.Fatalf("event = %+v", e)
	}
}

func TestStats(t *testing.T) {
	d := New(8)
	d.Write(0, 1, 0)
	d.Read(1, 0)
	d.Read(2, line)
	d.Write(1, 2, 0)
	d.Writeback(1, 0)
	st := d.Stats()
	if st.WriteEvents != 2 || st.ReadMisses != 2 || st.Writebacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BlocksTouched != 2 {
		t.Fatalf("BlocksTouched = %d", st.BlocksTouched)
	}
	tr := d.Finish()
	if d.Stats().BlocksTouched != 2 {
		t.Fatal("BlocksTouched lost after Finish")
	}
	if tr.Nodes != 8 {
		t.Fatalf("trace nodes = %d", tr.Nodes)
	}
}

func TestDirFieldIsHome(t *testing.T) {
	d := New(16)
	d.Read(7, 0x2000) // first touch by 7 → home 7
	d.Write(3, 1, 0x2000)
	tr := d.Finish()
	if tr.Events[0].Dir != 7 {
		t.Fatalf("Dir = %d, want 7", tr.Events[0].Dir)
	}
}

func TestNewPanicsOnBadNodeCount(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

// TestTransactionsReturnHome: every transaction returns its block's home,
// the first toucher's node, across enough blocks to grow the index
// several times; a writeback of a block never seen gives it its home.
func TestTransactionsReturnHome(t *testing.T) {
	d := New(16)
	const blocks = 5000
	for i := 0; i < blocks; i++ {
		addr, pid := uint64(i)*line, i%16
		var home int
		switch i % 4 {
		case 0:
			_, home = d.Read(pid, addr)
		case 1:
			_, home = d.Write(pid, 1, addr)
		case 2:
			_, _, home = d.ReadExclusive(pid, 1, addr)
		case 3:
			home = d.Writeback(pid, addr)
		}
		if home != pid {
			t.Fatalf("block %d: home %d, want its first toucher %d", i, home, pid)
		}
	}
	for i := blocks - 1; i >= 0; i-- {
		if _, home := d.Write((i+1)%16, 2, uint64(i)*line); home != i%16 {
			t.Fatalf("block %d: home moved to %d", i, home)
		}
	}
	if got := d.Stats().BlocksTouched; got != blocks {
		t.Fatalf("BlocksTouched = %d, want %d", got, blocks)
	}
	if d.find(blocks*line) != nil {
		t.Fatal("an untouched block has an entry")
	}
}
