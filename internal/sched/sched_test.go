package sched

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// recorder is a Memory that logs accesses.
type recorder struct {
	accesses []access
}

type access struct {
	pid   int
	pc    uint64
	addr  uint64
	write bool
}

func (r *recorder) Load(pid int, pc, addr uint64) {
	r.accesses = append(r.accesses, access{pid, pc, addr, false})
}
func (r *recorder) Store(pid int, pc, addr uint64) {
	r.accesses = append(r.accesses, access{pid, pc, addr, true})
}

// yield gives up the processor with a fresh quantum, forcing a
// reschedule wherever the test needs one.
func (t *Thread) yield() {
	t.quantum = t.newQuantum()
	t.park()
}

func TestAllThreadsRun(t *testing.T) {
	var rec recorder
	ran := make([]bool, 8)
	New(&rec, Config{Threads: 8, Seed: 1}).Run(func(th *Thread) {
		ran[th.ID] = true
		th.Store(UserPCBase, uint64(th.ID)*64)
	})
	for i, r := range ran {
		if !r {
			t.Errorf("thread %d did not run", i)
		}
	}
	if len(rec.accesses) != 8 {
		t.Fatalf("accesses = %d", len(rec.accesses))
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []access {
		var rec recorder
		New(&rec, Config{Threads: 4, Seed: seed}).Run(func(th *Thread) {
			for i := 0; i < 20; i++ {
				if th.Rng.Intn(2) == 0 {
					th.Load(UserPCBase, uint64(i*64))
				} else {
					th.Store(UserPCBase+1, uint64(i*64))
				}
			}
		})
		return rec.accesses
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different interleavings")
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical interleavings (suspicious)")
	}
}

func TestInterleaving(t *testing.T) {
	// With a small quantum, accesses from different threads must
	// interleave rather than run to completion one thread at a time.
	var rec recorder
	New(&rec, Config{Threads: 4, Seed: 3, MaxQuantum: 4}).Run(func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Load(UserPCBase, uint64(th.ID)*1024)
		}
	})
	switches := 0
	for i := 1; i < len(rec.accesses); i++ {
		if rec.accesses[i].pid != rec.accesses[i-1].pid {
			switches++
		}
	}
	if switches < 10 {
		t.Fatalf("only %d context switches in %d accesses", switches, len(rec.accesses))
	}
}

func TestBarrierOrdering(t *testing.T) {
	var rec recorder
	phase := make([]int32, 4)
	var maxPhase0 int32
	New(&rec, Config{Threads: 4, Seed: 9}).Run(func(th *Thread) {
		th.Store(UserPCBase, uint64(th.ID)*64)
		atomic.AddInt32(&phase[th.ID], 1)
		th.Barrier()
		// By now every thread must have completed phase 0.
		for i := range phase {
			if v := atomic.LoadInt32(&phase[i]); v < 1 && maxPhase0 == 0 {
				t.Errorf("thread %d passed barrier before thread %d arrived", th.ID, i)
				maxPhase0 = 1
			}
		}
		th.Store(UserPCBase+1, uint64(th.ID)*64)
	})
}

func TestBarrierReusable(t *testing.T) {
	counts := make([]int, 3)
	var rec recorder
	New(&rec, Config{Threads: 3, Seed: 2}).Run(func(th *Thread) {
		for round := 0; round < 5; round++ {
			counts[th.ID]++
			th.Barrier()
			// All threads are in the same round after the barrier.
			for i := range counts {
				if counts[i] != counts[th.ID] {
					t.Errorf("round skew: %v", counts)
				}
			}
			th.Barrier()
		}
	})
}

func TestBarrierWithEarlyFinisher(t *testing.T) {
	// Thread 2 exits before the others reach their barrier; the barrier
	// must release the remaining live threads.
	var rec recorder
	done := false
	New(&rec, Config{Threads: 3, Seed: 4}).Run(func(th *Thread) {
		if th.ID == 2 {
			return
		}
		th.Store(UserPCBase, uint64(th.ID)*64)
		th.Barrier()
		done = true
	})
	if !done {
		t.Fatal("barrier never released after a thread finished early")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	var rec recorder
	rt := New(&rec, Config{Threads: 8, Seed: 11, MaxQuantum: 2})
	lk := rt.NewLock()
	inside := 0
	maxInside := 0
	rt.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Lock(lk)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			// Force a reschedule inside the critical section.
			th.Load(UserPCBase, 0)
			th.yield()
			th.Store(UserPCBase+1, 0)
			inside--
			th.Unlock(lk)
		}
	})
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d threads inside", maxInside)
	}
}

func TestLockGeneratesTraffic(t *testing.T) {
	var rec recorder
	rt := New(&rec, Config{Threads: 2, Seed: 5})
	lk := rt.NewLock()
	rt.Run(func(th *Thread) {
		th.Lock(lk)
		th.Unlock(lk)
	})
	// Each thread: ≥1 load (test) + 1 store (set) + 1 store (release) on
	// the lock line.
	lockAccesses := 0
	for _, a := range rec.accesses {
		if a.addr >= DefaultSyncBase {
			lockAccesses++
		}
	}
	if lockAccesses < 6 {
		t.Fatalf("lock accesses = %d, want >= 6", lockAccesses)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	var rec recorder
	rt := New(&rec, Config{Threads: 2, Seed: 5})
	lk := rt.NewLock()
	got := recoverRun(rt, func(th *Thread) {
		if th.ID == 0 {
			th.Lock(lk)
			th.Barrier()
			th.Unlock(lk)
		} else {
			th.Barrier()
			th.Unlock(lk) // not the holder: must panic
		}
	})
	// Run re-raises thread 1's own panic on this goroutine. Thread 0 may
	// or may not have released the lock first, so the holder varies.
	if s, ok := got.(string); !ok || !strings.HasPrefix(s, "sched: thread 1 unlocking lock held by ") {
		t.Fatalf("Run panicked with %v, want thread 1's unlock panic", got)
	}
}

func TestDeadlockPanics(t *testing.T) {
	var rec recorder
	rt := New(&rec, Config{Threads: 2, Seed: 3})
	lk := rt.NewLock()
	// Each thread takes the one lock and returns without unlocking, so
	// whichever thread comes second blocks forever.
	got := recoverRun(rt, func(th *Thread) { th.Lock(lk) })
	if s, ok := got.(string); !ok || !strings.HasPrefix(s, "sched: deadlock") {
		t.Fatalf("Run panicked with %v, want the deadlock panic", got)
	}
}

// recoverRun runs body under rt and returns the value Run panicked with,
// or nil if it returned normally.
func recoverRun(rt *Runtime, body func(*Thread)) (v interface{}) {
	defer func() { v = recover() }()
	rt.Run(body)
	return nil
}

func TestLocksOnDistinctLines(t *testing.T) {
	var rec recorder
	rt := New(&rec, Config{Threads: 1, Seed: 1})
	a, b := rt.NewLock(), rt.NewLock()
	if a.addr == b.addr {
		t.Fatal("locks share an address")
	}
	if a.addr/syncLine == b.addr/syncLine {
		t.Fatal("locks share a cache line")
	}
}

func TestSyncAddressesAboveUserSpace(t *testing.T) {
	var rec recorder
	rt := New(&rec, Config{Threads: 2, Seed: 1})
	lk := rt.NewLock()
	rt.Run(func(th *Thread) {
		th.Lock(lk)
		th.Unlock(lk)
		th.Barrier()
	})
	for _, a := range rec.accesses {
		if a.addr < DefaultSyncBase {
			t.Fatalf("sync access below DefaultSyncBase: %#x", a.addr)
		}
	}
}

func TestPCConstants(t *testing.T) {
	// Lock/barrier PCs must stay below UserPCBase so kernels cannot
	// collide with them.
	for _, pc := range []uint64{pcLockAcquire, pcLockRelease, pcBarrierArrive, pcBarrierSpin} {
		if pc >= UserPCBase {
			t.Fatalf("runtime pc %d >= UserPCBase", pc)
		}
	}
}

func TestZeroThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Threads=0 accepted")
		}
	}()
	New(&recorder{}, Config{Threads: 0})
}
