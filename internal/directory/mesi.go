package directory

import "cohpredict/internal/bitmap"

// MESI support: exclusive read grants. When a read misses and no cached
// copy exists anywhere, a MESI directory hands the requester the sole copy
// in Exclusive state; a later store by that node promotes the line to
// Modified *silently* — no write miss, no write fault, and therefore no
// prediction event. This models the information a real MESI protocol hides
// from a sharing predictor: the write that opens the new epoch is invisible,
// so the epoch must be attributed to the exclusive grant itself (the load's
// pid/pc). The machine enables this path with Config.MESI; the default MSI
// configuration matches the paper's every-write-fault-visible accounting.

// ReadExclusive registers a load by pid (from static load site pc) that
// missed in its caches, granting Exclusive state when no other cached copy
// exists. It returns the node whose Modified copy must be downgraded (-1 if
// none), whether the requester received exclusivity, and the block's home.
func (d *Directory) ReadExclusive(pid int, pc uint64, addr uint64) (downgrade int, exclusive bool, home int) {
	st := d.lookup(addr, pid)
	if !st.sharers.IsEmpty() {
		// Cached copies exist: ordinary shared read.
		return d.read(st, pid), false, st.home
	}
	d.stats.ReadMisses++
	d.stats.ExclusiveGrants++

	// The grant implicitly closes the open epoch (if any) without a
	// prediction event: the requester is the epoch's final reader.
	if st.openEvent != noEvent {
		inv := st.readers.Set(pid)
		if st.hasOwner {
			inv = inv.Clear(st.owner)
		}
		d.event(st.openEvent).FutureReaders = inv
	}

	// Open a silent epoch owned by the requester. A subsequent write by
	// the owner stays invisible; the next conflicting access sees this
	// node (and the load site) as the previous writer.
	st.hasOwner = true
	st.owner = pid
	st.ownerPC = pc
	st.readers = bitmap.Empty
	st.sharers = bitmap.New(pid)
	st.openEvent = noEvent
	return -1, true, st.home
}
