// Package directory implements the full-map invalidation directory of the
// simulated distributed shared-memory machine (the Dir_N NB family of
// Agarwal et al. that the paper assumes). Besides keeping caches coherent,
// the directory is the observation point for sharing prediction: it tracks,
// for every cache block, the current write epoch — who owns it, and which
// nodes have truly read it since it last became exclusive — and emits one
// trace.Event per exclusive-ownership transition.
//
// True-reader tracking models the paper's access-bit mechanism: only nodes
// that actually loaded the block during the epoch count as readers, so the
// feedback bitmaps are never polluted by speculative forwards.
package directory

import (
	"fmt"
	"math/bits"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/trace"
)

// noEvent marks a block epoch that was opened before any write (cold reads).
const noEvent = -1

// eventChunkBits sizes the chunks the event log grows by (4096 events).
// Emitted events stay where they are until Finish copies them into the
// trace once, instead of being copied each time one slice outgrows itself.
const eventChunkBits = 12

// blockState is the directory entry for one cache block.
type blockState struct {
	// hasOwner reports whether the current epoch has an exclusive owner.
	hasOwner bool
	// owner and ownerPC identify the store that opened the epoch.
	owner   int
	ownerPC uint64
	// readers is the set of nodes that loaded the block during the
	// current epoch (true readers; the owner's own loads hit locally and
	// are not sharing).
	readers bitmap.Bitmap
	// sharers is the set of nodes the directory believes cache the block
	// (readers plus the owner); it drives invalidations.
	sharers bitmap.Bitmap
	// openEvent indexes the trace event that opened this epoch, so its
	// FutureReaders can be resolved when the epoch closes.
	openEvent int
	// home is the block's directory node, assigned on first touch.
	home int
}

// Stats aggregates directory activity counters.
type Stats struct {
	ReadMisses    uint64 // loads that reached the directory
	WriteEvents   uint64 // exclusive-ownership transitions (prediction events)
	Invalidations uint64 // individual cache invalidation messages sent
	Writebacks    uint64 // dirty evictions returned to the home
	BlocksTouched uint64 // distinct blocks with directory state
	Broadcasts    uint64 // limited-pointer overflows serviced by broadcast
	// ExclusiveGrants counts MESI exclusive read grants (see mesi.go).
	ExclusiveGrants uint64
}

// Directory is the (logically centralised, physically distributed) full-map
// directory. Addresses passed in must already be line-aligned. Each
// coherence transaction looks its block up once: Read, ReadExclusive,
// Write and Writeback return the block's home with their result.
type Directory struct {
	nodes int
	// blocks maps a block address to its entry's index in states, which
	// holds the entries by value in first-touch order.
	blocks blockIndex
	states []blockState
	// events is the event log in chunks of 1<<eventChunkBits; nEvents
	// counts the events in it.
	events  [][]trace.Event
	nEvents int
	stats   Stats

	// mode and pointers select the directory organisation (see
	// limited.go); the zero values mean full-map.
	mode     Mode
	pointers int

	// eventHook, if set, observes each prediction event as it is
	// emitted. The event's FutureReaders are NOT yet resolved at that
	// point — the hook sees exactly what online hardware would see.
	eventHook func(trace.Event)
}

// New returns a directory for an n-node machine using first-touch home
// assignment (the paper's data-placement policy: "RSIM ... uses a
// first-touch policy on a cache-line granularity").
func New(nodes int) *Directory {
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		//predlint:ignore panicfree construction-time node-count bounds
		panic(fmt.Sprintf("directory: node count %d out of range", nodes))
	}
	return &Directory{nodes: nodes}
}

// SetEventHook registers an observer called with each prediction event at
// emission time (before its FutureReaders resolve), the vantage point an
// online forwarding protocol has.
func (d *Directory) SetEventHook(f func(trace.Event)) { d.eventHook = f }

// Stats returns a copy of the activity counters.
func (d *Directory) Stats() Stats {
	s := d.stats
	if d.states != nil {
		s.BlocksTouched = uint64(len(d.states))
	}
	return s
}

// lookup returns the block's entry, creating it (with pid as the first
// toucher) if the block is new. The pointer is valid until the next
// lookup that creates an entry.
func (d *Directory) lookup(addr uint64, pid int) *blockState {
	if st := d.find(addr); st != nil {
		return st
	}
	d.blocks.insert(addr, len(d.states))
	d.states = append(d.states, blockState{
		owner:     -1,
		openEvent: noEvent,
		home:      pid, // first touch
	})
	return &d.states[len(d.states)-1]
}

// find returns the block's entry, or nil if the block was never touched.
func (d *Directory) find(addr uint64) *blockState {
	if i := d.blocks.find(addr); i >= 0 {
		return &d.states[i]
	}
	return nil
}

// event returns the i'th event emitted.
func (d *Directory) event(i int) *trace.Event {
	return &d.events[i>>eventChunkBits][i&(1<<eventChunkBits-1)]
}

// Read registers a load by pid that missed in its caches. It returns the
// node whose cache must downgrade a Modified copy (-1 if none), and the
// block's home, which a new block takes from pid, its first toucher.
func (d *Directory) Read(pid int, addr uint64) (downgrade, home int) {
	st := d.lookup(addr, pid)
	return d.read(st, pid), st.home
}

// read registers a load miss on st by pid.
func (d *Directory) read(st *blockState, pid int) (downgrade int) {
	d.stats.ReadMisses++
	downgrade = -1
	if st.hasOwner && st.owner != pid && st.sharers.Has(st.owner) && st.readers.IsEmpty() {
		// Owner still holds the line Modified: no reader has forced a
		// downgrade yet this epoch (the first reader does).
		downgrade = st.owner
	}
	if !st.hasOwner || st.owner != pid {
		st.readers = st.readers.Set(pid)
	}
	st.sharers = st.sharers.Set(pid)
	return downgrade
}

// Write registers a store by pid (identified by static store pc) that needs
// exclusive ownership. It closes the block's current epoch, emits a
// prediction event, opens the new epoch, and returns the nodes whose cached
// copies must be invalidated (never including pid) with the block's home.
func (d *Directory) Write(pid int, pc uint64, addr uint64) (invalidate bitmap.Bitmap, home int) {
	st := d.lookup(addr, pid)
	d.stats.WriteEvents++

	// True readers of the closing epoch, excluding that epoch's writer:
	// the prediction target is "nodes that will read newly created
	// data", so feedback uses the same definition.
	inv := st.readers
	if st.hasOwner {
		inv = inv.Clear(st.owner)
	}

	// Resolve the ground truth of the event that opened the closing
	// epoch: its future readers are exactly the readers we now
	// invalidate.
	if st.openEvent != noEvent {
		d.event(st.openEvent).FutureReaders = inv
	}

	// Node ids are below the machine's node count, so their bytes are exact.
	ev := trace.Event{
		PID:        uint8(pid),
		PC:         pc,
		Dir:        uint8(st.home),
		Addr:       addr,
		InvReaders: inv,
		HasPrev:    st.hasOwner,
	}
	if st.hasOwner {
		ev.PrevPID = uint8(st.owner)
		ev.PrevPC = st.ownerPC
	}
	if d.nEvents&(1<<eventChunkBits-1) == 0 {
		d.events = append(d.events, make([]trace.Event, 1<<eventChunkBits))
	}
	*d.event(d.nEvents) = ev
	d.nEvents++
	if d.eventHook != nil {
		d.eventHook(ev)
	}

	// Invalidate every cached copy except the new owner's. The sharer
	// bitmap includes the previous owner unless it wrote the line back;
	// a limited-pointer directory that overflowed must broadcast.
	invalidate = d.invalidationTargets(st, pid)
	d.stats.Invalidations += uint64(invalidate.Count())

	// Open the new epoch.
	st.hasOwner = true
	st.owner = pid
	st.ownerPC = pc
	st.readers = bitmap.Empty
	st.sharers = bitmap.New(pid)
	st.openEvent = d.nEvents - 1
	return invalidate, st.home
}

// Writeback registers a dirty L2 eviction by pid and returns the block's
// home. Ownership of the block returns to the home memory; the epoch stays
// open (future readers keep accumulating until the next write). A block the
// directory never saw is only given its home, pid.
func (d *Directory) Writeback(pid int, addr uint64) (home int) {
	st := d.find(addr)
	if st == nil {
		return d.lookup(addr, pid).home
	}
	d.stats.Writebacks++
	st.sharers = st.sharers.Clear(pid)
	// The epoch's writer identity is retained for forwarded-update
	// attribution even though the cached copy is gone.
	return st.home
}

// Finish resolves the ground truth of all still-open epochs (their readers
// so far become the final FutureReaders) and returns the completed trace.
// The directory must not be used after Finish (statistics remain readable).
func (d *Directory) Finish() *trace.Trace {
	d.stats.BlocksTouched = uint64(len(d.states))
	for i := range d.states {
		st := &d.states[i]
		if st.openEvent == noEvent {
			continue
		}
		inv := st.readers
		if st.hasOwner {
			inv = inv.Clear(st.owner)
		}
		d.event(st.openEvent).FutureReaders = inv
	}
	events := make([]trace.Event, d.nEvents)
	for i, chunk := range d.events {
		copy(events[i<<eventChunkBits:], chunk)
	}
	t := &trace.Trace{Nodes: d.nodes, Events: events}
	d.events = nil
	d.blocks = blockIndex{}
	d.states = nil
	return t
}

// blockIndex maps block addresses to their entries' indexes in states: an
// open-addressing table, probed linearly from a multiplicative hash of the
// address, and doubled before it is half full.
type blockIndex struct {
	slots []blockSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// blockSlot is one table slot; at is the entry's index + 1, 0 when empty.
type blockSlot struct {
	addr uint64
	at   int32
}

const blockHashMul = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// find returns the index of addr's entry, or -1.
func (x *blockIndex) find(addr uint64) int {
	if x.n == 0 {
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	for i := (addr * blockHashMul) >> x.shift; ; i = (i + 1) & mask {
		switch s := &x.slots[i]; {
		case s.at == 0:
			return -1
		case s.addr == addr:
			return int(s.at) - 1
		}
	}
}

// insert records that addr's entry, new to the index, is at index at.
func (x *blockIndex) insert(addr uint64, at int) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	i := (addr * blockHashMul) >> x.shift
	for x.slots[i].at != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = blockSlot{addr: addr, at: int32(at + 1)}
	x.n++
}

// grow doubles the table (to 1024 slots at first) and re-inserts every
// entry.
func (x *blockIndex) grow() {
	old := x.slots
	size := max(2*len(old), 1024)
	x.slots = make([]blockSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	x.n = 0
	for _, s := range old {
		if s.at != 0 {
			x.insert(s.addr, int(s.at)-1)
		}
	}
}
