package cluster

// Warm-standby replication: periodic COHSNAP1 shipping. Every session
// gets its snapshot GET from its home and PUT to the standby on the
// ship interval, so an unannounced backend death loses at most one
// interval of training. The shipped copy carries the idempotency cache:
// a retry whose key the copy holds unacknowledged replays its reply, and
// one whose key it holds acknowledged is refused with 409, so neither
// trains twice.

import "time"

// ShipNow ships one snapshot per eligible session to the standby and
// reports how many shipped. Sessions already homed on the standby
// (post-failover), lost sessions, and sessions mid-migration are
// skipped. Each ship is serialized with migrations (migrateMu) so a
// ship can never interleave with a flip on the same session — but the
// lock is taken per session, not across the sweep, so a migration
// waits out at most one in-flight ship (two proxyTimeouts) rather
// than the entire cycle.
func (rt *Router) ShipNow() int {
	standby := rt.standby
	if standby == nil || !standby.healthy.Load() {
		return 0
	}
	shipped := 0
	var failed []*node
	for _, e := range rt.entries() {
		rt.migrateMu.Lock()
		n, migrating, _, lost := e.placement()
		if lost || migrating || n == standby {
			rt.migrateMu.Unlock()
			continue
		}
		ok, bad := rt.shipOne(e, n, standby)
		rt.migrateMu.Unlock()
		if ok {
			shipped++
		}
		if bad != nil {
			failed = append(failed, bad)
		}
	}
	// Probe outside the locks: noteBackendFailure may run a failover,
	// which takes shipMu itself.
	for _, n := range failed {
		rt.noteBackendFailure(n)
	}
	return shipped
}

// shipOne copies one session home→standby under shipMu, which
// failoverFrom and handleDelete also take: a failover sees either the
// old complete copy or the new complete copy, never the gap between
// them, and a session deleted since the sweep listed it is not shipped.
// The node a transport failure came from is returned to the caller,
// which runs any failover it needs outside the locks (failoverFrom takes
// shipMu), to keep the lock order acyclic.
func (rt *Router) shipOne(e *entry, home, standby *node) (ok bool, failed *node) {
	rt.shipMu.Lock()
	defer rt.shipMu.Unlock()
	if cur, err := rt.lookup(e.cid); err != nil || cur != e {
		return false, nil // deleted since the sweep listed it
	}
	// The copy's delete destroys the standby's previous copy; until the
	// PUT lands there is nothing to fail over to, so the shipped mark
	// must not claim otherwise. A failed ship clears the mark too: after
	// a failed PUT the standby holds nothing, and after a failed GET from
	// a home that is alive the copy falls further behind the home with
	// every interval, so a failover must declare the session lost rather
	// than route it to a 404 or to an older state. Only a home that
	// answers neither the GET nor a probe keeps the mark: it is dead, and
	// the copy is the newest state left, which the caller's probe of the
	// home fails the session over to.
	failed, err := rt.copySession(e.cid, home, standby, func() { e.setShipped(false) })
	if err != nil {
		rt.cm.shipFailures.Inc()
		if failed != home || rt.probe(home) {
			e.setShipped(false)
		}
		rt.opts.Log.Infof("cluster: ship of %s failed: %v", e.cid, err)
		return false, failed
	}
	e.setShipped(true)
	rt.cm.shipsTotal.Inc()
	return true, nil
}

// healthLoop drives CheckNow on the configured interval until Close.
func (rt *Router) healthLoop() {
	defer rt.loopWG.Done()
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.loopStop:
			return
		case <-t.C:
			rt.CheckNow()
		}
	}
}

// shipLoop drives ShipNow on the configured interval until Close.
func (rt *Router) shipLoop() {
	defer rt.loopWG.Done()
	t := time.NewTicker(rt.opts.ShipInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.loopStop:
			return
		case <-t.C:
			rt.ShipNow()
		}
	}
}
