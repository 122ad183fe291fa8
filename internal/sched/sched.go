// Package sched is the deterministic parallel-workload runtime. The SPLASH
// programs the paper traces are pthread-style shared-memory codes; sched
// lets the workload kernels be written the same way — one body function per
// processor, with barriers and locks — while keeping execution fully
// deterministic for a given seed.
//
// Threads run as coroutines under a cooperative scheduler that admits
// exactly one thread at a time, so kernels need no synchronisation of their
// own Go state. A thread yields the processor after a randomly sized quantum
// of memory accesses (modelling the arbitrary interleavings an out-of-order
// multiprocessor produces), at barriers, and when blocked on a lock. Lock
// and barrier operations themselves issue loads and stores to shared
// synchronisation lines, so synchronisation traffic — a major source of
// migratory sharing — appears in the coherence trace like any other sharing.
//
// The thread that gives up the processor draws the next thread itself. If
// it drew itself it keeps running with no switch; otherwise it yields to
// Run, whose loop resumes the drawn thread with one coroutine switch. Run
// returns when every thread has finished and panics when none is runnable;
// a thread's panic propagates out of its coroutine to Run's caller.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
)

// Memory is the interface workloads issue accesses against; the machine
// simulator implements it.
type Memory interface {
	Load(pid int, pc, addr uint64)
	Store(pid int, pc, addr uint64)
}

// PC values used by the runtime's own synchronisation accesses. Workload
// site PCs start at UserPCBase so they never collide.
const (
	pcLockAcquire uint64 = iota + 1
	pcLockRelease
	pcBarrierArrive
	pcBarrierSpin

	// UserPCBase is the first PC available to workload kernels.
	UserPCBase uint64 = 16
)

type threadState uint8

const (
	runnable threadState = iota
	waitingBarrier
	waitingLock
	finished
)

const syncLine = 64 // synchronisation objects are padded to a cache line

// Lock is a shared-memory mutex created by Runtime.NewLock. Its line lives
// in the simulated address space, so acquisitions and releases generate
// coherence traffic (test-and-test-and-set style).
type Lock struct {
	addr    uint64
	held    bool
	holder  int
	waiters []int
}

// Runtime executes a set of cooperative threads over a Memory.
type Runtime struct {
	mem     Memory
	rng     *rand.Rand
	threads []*Thread
	// runnable holds the runnable threads in ID order, kept in step with
	// every state change (setState), so a draw scans nothing.
	runnable []*Thread
	next     *Thread // pass's draw, which Run resumes; nil if none runnable
	live     int
	maxQ     int

	barAddr    uint64
	barArrived int
	nextSync   uint64
}

// Thread is the per-processor handle passed to kernel bodies.
type Thread struct {
	// ID is the processor number, 0-based.
	ID int
	// Rng is a per-thread deterministic random source for workload
	// randomness (particle moves, placement jitter, ...).
	Rng *rand.Rand

	rt      *Runtime
	state   threadState
	quantum int

	// resume runs the thread's coroutine until it suspends or its body
	// has returned; suspend, called on the coroutine, gives the processor
	// back to Run. Both come from start.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
}

// Config parameterises a Runtime.
type Config struct {
	// Threads is the number of processors (kernel body instances).
	Threads int
	// Seed drives all scheduling and workload randomness.
	Seed int64
	// MaxQuantum bounds the number of memory accesses a thread performs
	// before the scheduler may switch (default 16).
	MaxQuantum int
}

// DefaultSyncBase is the base address of the runtime's synchronisation
// region (barrier counter and locks); workload layouts must stay below
// it.
const DefaultSyncBase uint64 = 1 << 40

// New prepares a runtime; Run is the usual entry point.
func New(mem Memory, cfg Config) *Runtime {
	if cfg.Threads <= 0 {
		//predlint:ignore panicfree construction-time config validation
		panic("sched: non-positive thread count")
	}
	if cfg.MaxQuantum <= 0 {
		cfg.MaxQuantum = 16
	}
	rt := &Runtime{
		mem:      mem,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		live:     cfg.Threads,
		maxQ:     cfg.MaxQuantum,
		runnable: make([]*Thread, 0, cfg.Threads),
		barAddr:  DefaultSyncBase,
		nextSync: DefaultSyncBase + syncLine,
	}
	rt.threads = make([]*Thread, cfg.Threads)
	for i := range rt.threads {
		t := &Thread{
			ID:  i,
			Rng: rand.New(rand.NewSource(cfg.Seed ^ (int64(i)+1)*0x5851F42D4C957F2D)),
			rt:  rt,
		}
		t.quantum = t.newQuantum()
		rt.threads[i] = t
	}
	rt.runnable = append(rt.runnable, rt.threads...)
	return rt
}

// NewLock allocates a lock on its own synchronisation line. Locks must be
// created before Run starts (typically in the kernel's setup code).
func (rt *Runtime) NewLock() *Lock {
	l := &Lock{addr: rt.nextSync, holder: -1}
	rt.nextSync += syncLine
	return l
}

// Run executes body once per thread and returns when all threads finish.
// It panics on deadlock (all live threads blocked), which indicates a
// kernel bug, and a panic from any thread body propagates out of it. After
// a deadlock or a panic the threads still suspended stay suspended: Run
// never stops their coroutines, since a stopped thread would resume and
// run on (one waiting in Lock would spin forever).
func (rt *Runtime) Run(body func(*Thread)) {
	for _, t := range rt.threads {
		t.start(body)
	}
	rt.pass(nil)
	for rt.next != nil {
		rt.next.resume()
	}
	if rt.live > 0 {
		//predlint:ignore panicfree a deadlock is a kernel bug
		panic(fmt.Sprintf("sched: deadlock — %d live threads, none runnable", rt.live))
	}
}

// finish runs on t's coroutine once its body has returned: it marks t
// finished, releases a barrier the other live threads all wait at, and
// draws the next thread.
func (t *Thread) finish() {
	rt := t.rt
	t.setState(finished)
	rt.live--
	rt.maybeReleaseBarrier()
	rt.pass(t)
}

func (t *Thread) newQuantum() int { return 1 + t.Rng.Intn(t.rt.maxQ) }

// setState moves t to state s, inserting t into the runnable list or
// deleting it from there when s makes it runnable or stops it being so.
func (t *Thread) setState(s threadState) {
	was, now := t.state == runnable, s == runnable
	t.state = s
	if was == now {
		return
	}
	rt := t.rt
	i := 0
	for i < len(rt.runnable) && rt.runnable[i].ID < t.ID {
		i++
	}
	if now {
		rt.runnable = slices.Insert(rt.runnable, i, t)
	} else {
		rt.runnable = slices.Delete(rt.runnable, i, i+1)
	}
}

// pass draws the next thread from the runnable ones for from, the thread
// giving up the processor (nil for Run's first pick), into rt.next, or
// sets it nil when none is runnable (every thread has finished, or a
// deadlock). It reports whether from drew itself and keeps running.
func (rt *Runtime) pass(from *Thread) bool {
	rt.next = nil
	if len(rt.runnable) == 0 {
		return false
	}
	rt.next = rt.runnable[rt.rng.Intn(len(rt.runnable))]
	return rt.next == from
}

// park gives up the processor; the thread resumes when a later pick
// chooses it (its state must be runnable by then). After a deadlock it
// never resumes.
func (t *Thread) park() {
	if !t.rt.pass(t) {
		t.suspend(struct{}{})
	}
}

func (t *Thread) access(write bool, pc, addr uint64) {
	if write {
		t.rt.mem.Store(t.ID, pc, addr)
	} else {
		t.rt.mem.Load(t.ID, pc, addr)
	}
	t.quantum--
	if t.quantum <= 0 {
		t.quantum = t.newQuantum()
		t.park()
	}
}

// Load issues a load of addr from static site pc.
func (t *Thread) Load(pc, addr uint64) { t.access(false, pc, addr) }

// Store issues a store to addr from static site pc.
func (t *Thread) Store(pc, addr uint64) { t.access(true, pc, addr) }

// Lock acquires l, blocking (and yielding) while it is held. The protocol
// is test-and-test-and-set: a load of the lock line, then — once observed
// free — a store to claim it, so lock lines exhibit the classic migratory
// pattern.
func (t *Thread) Lock(l *Lock) {
	t.access(false, pcLockAcquire, l.addr) // test
	for l.held {
		l.waiters = append(l.waiters, t.ID)
		t.setState(waitingLock)
		t.park()
		t.access(false, pcLockAcquire, l.addr) // re-test after wake-up
	}
	l.held = true
	l.holder = t.ID
	t.access(true, pcLockAcquire, l.addr) // set
}

// Unlock releases l and wakes its waiters, which re-contend.
func (t *Thread) Unlock(l *Lock) {
	if !l.held || l.holder != t.ID {
		//predlint:ignore panicfree lock-misuse guard
		panic(fmt.Sprintf("sched: thread %d unlocking lock held by %d", t.ID, l.holder))
	}
	l.held = false
	l.holder = -1
	t.access(true, pcLockRelease, l.addr)
	for _, id := range l.waiters {
		w := t.rt.threads[id]
		if w.state == waitingLock {
			w.setState(runnable)
		}
	}
	l.waiters = l.waiters[:0]
}

// Barrier blocks until every live thread has arrived. Arrival writes the
// barrier counter line; departure reads the release flag the last arriver
// wrote — the classic one-producer/many-consumer barrier pattern.
func (t *Thread) Barrier() {
	rt := t.rt
	t.access(true, pcBarrierArrive, rt.barAddr)
	rt.barArrived++
	if rt.barArrived >= rt.live {
		rt.releaseBarrier()
		return
	}
	t.setState(waitingBarrier)
	t.park()
	t.access(false, pcBarrierSpin, rt.barAddr) // read the release flag
}

func (rt *Runtime) releaseBarrier() {
	rt.barArrived = 0
	for _, w := range rt.threads {
		if w.state == waitingBarrier {
			w.setState(runnable)
		}
	}
}

// maybeReleaseBarrier handles a thread finishing while others wait at the
// barrier: if all remaining live threads have arrived, release them.
func (rt *Runtime) maybeReleaseBarrier() {
	if rt.live > 0 && rt.barArrived >= rt.live {
		rt.releaseBarrier()
	}
}
