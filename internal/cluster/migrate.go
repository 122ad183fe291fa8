package cluster

// Live migration and failover. Both move a session's home; they differ
// in what they can salvage. Migration is cooperative: the old node is
// alive, so the session drains, snapshots at the exact event boundary,
// and loses nothing. Failover is forensic: the old node is gone, so
// the session resumes from the last snapshot shipped to the standby —
// at most one flush interval behind — and the client's idempotency
// keys bridge the seam (a batch that trained just before the kill and
// is retried after the flip replays from the shipped idempotency cache
// instead of training twice).

import (
	"context"
	"fmt"
	"net/http"
)

// Migrate moves a live session to the named target backend: drain →
// snapshot → restore → flip → replay parked requests. On any step
// failure the routing table is rolled back to the old home and the
// parked requests resume against it.
//
// Migrations are serialized (migrateMu): concurrent rebalancing moves
// one session at a time, which keeps snapshot traffic bounded and the
// failure analysis simple.
func (rt *Router) Migrate(cid, target string) error {
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	tgt := rt.backendByURL(target)
	if tgt == nil {
		return httpErr(http.StatusBadRequest, fmt.Errorf("cluster: target %q is not a configured backend", target))
	}
	if !tgt.healthy.Load() {
		return httpErr(http.StatusConflict, fmt.Errorf("cluster: target %s is unhealthy", tgt.url))
	}

	rt.migrateMu.Lock()
	defer rt.migrateMu.Unlock()

	// Begin the drain: mark the entry migrating so new requests park,
	// then wait out the forwards already holding the old route.
	e.mu.Lock()
	if e.lost {
		e.mu.Unlock()
		return ErrSessionLost
	}
	if e.migrating {
		e.mu.Unlock()
		return httpErr(http.StatusConflict, ErrMigrating)
	}
	src := e.home
	if src == tgt {
		// Already home: the migration is complete with nothing to move.
		e.mu.Unlock()
		rt.cm.migrationsTotal.Inc()
		return nil
	}
	e.migrating = true
	e.flip = make(chan struct{})
	e.mu.Unlock()
	e.inflight.Wait()

	finish := func(newHome *node) {
		e.mu.Lock()
		if newHome != nil {
			e.home = newHome
		}
		e.migrating = false
		close(e.flip)
		e.mu.Unlock()
	}

	// Copy the drained session. The snapshot GET takes it between two
	// posts; the snapshot carries tuning and the idempotency cache,
	// so retries straddling the flip replay.
	if down, err := rt.copySession(cid, src, tgt, nil); err != nil {
		if down != nil {
			rt.noteBackendFailure(down)
		}
		finish(nil)
		rt.cm.migrationAborts.Inc()
		rt.opts.Log.Infof("cluster: migration of %s to %s aborted: %v", cid, tgt.url, err)
		// The rollback re-homes the session on src — but if src was
		// marked down while the entry was migrating, the failover sweep
		// skipped it and will not run again (markDown transitions only
		// once). Re-run the sweep now that the entry is visible again,
		// so the session reaches the standby copy (or is declared lost)
		// instead of answering 502 forever. failoverFrom is idempotent
		// per entry, and migrateMu → shipMu is the documented order.
		if !src.healthy.Load() {
			rt.failoverFrom(src)
		}
		return codedErr(http.StatusBadGateway, CodeBadGateway,
			fmt.Errorf("cluster: migrating %s: %w", cid, err))
	}

	// Flip: from here every parked and future request routes to the
	// target. Only then retire the old copy (best-effort — the old
	// node may die right here and the migration has still succeeded).
	// A session that leaves the standby keeps its copy there: it is the
	// state the target starts from, so the shipped mark stays true.
	finish(tgt)
	if src != rt.standby {
		_, _ = rt.forward(src, http.MethodDelete, "/v1/sessions/"+cid, nil, nil)
	}
	rt.cm.migrationsTotal.Inc()
	rt.opts.Log.Infof("cluster: migrated %s: %s -> %s", cid, src.url, tgt.url)
	return nil
}

// copySession copies session cid from src to dst under the same id: a
// snapshot GET from src, which takes the session between two posts,
// then a DELETE of any copy dst holds and a PUT of the
// snapshot. Migrations and ships both move sessions this way. clear,
// when non-nil, runs between the GET and the DELETE. The error names
// the failed step; down is the node a transport failure came from, for
// the caller to probe.
func (rt *Router) copySession(cid string, src, dst *node, clear func()) (down *node, err error) {
	snap, err := rt.forward(src, http.MethodGet, "/v1/sessions/"+cid+"/snapshot", nil, nil)
	if err != nil {
		return src, fmt.Errorf("snapshot: %w", err)
	}
	if snap.status != http.StatusOK {
		return nil, fmt.Errorf("snapshot: backend %s returned %d: %s", src.url, snap.status, snap.body)
	}
	if clear != nil {
		clear()
	}
	_, _ = rt.forward(dst, http.MethodDelete, "/v1/sessions/"+cid, nil, nil)
	hdr := make(http.Header, 1)
	hdr.Set("Content-Type", snap.header.Get("Content-Type"))
	put, err := rt.forward(dst, http.MethodPut, "/v1/sessions/"+cid+"/snapshot", snap.body, hdr)
	if err != nil {
		return dst, fmt.Errorf("restore: %w", err)
	}
	if put.status != http.StatusCreated {
		return nil, fmt.Errorf("restore: backend %s returned %d: %s", dst.url, put.status, put.body)
	}
	return nil, nil
}

// probe asks one node's /healthz, within probeTimeout.
func (rt *Router) probe(n *node) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// noteBackendFailure is the fast detection path: a proxy transport
// failure triggers an immediate probe, and a failed probe triggers
// failover. A transient blip (probe succeeds) changes nothing.
func (rt *Router) noteBackendFailure(n *node) {
	if rt.probe(n) {
		return
	}
	rt.markDown(n)
}

// markDown transitions a node to unhealthy exactly once and fails its
// sessions over to the standby.
func (rt *Router) markDown(n *node) {
	if !n.healthy.CompareAndSwap(true, false) {
		return
	}
	rt.opts.Log.Infof("cluster: backend %s marked down", n.url)
	rt.updateHealthGauge()
	rt.failoverFrom(n)
}

// markUp transitions a node back to healthy (the health loop's probe
// succeeded). Sessions do not move back automatically; the node simply
// rejoins the ring for new placements and migration targets.
func (rt *Router) markUp(n *node) {
	if !n.healthy.CompareAndSwap(false, true) {
		return
	}
	rt.opts.Log.Infof("cluster: backend %s back up", n.url)
	rt.updateHealthGauge()
}

func (rt *Router) updateHealthGauge() {
	healthy := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			healthy++
		}
	}
	rt.cm.backendsHealthy.Set(float64(healthy))
}

// failoverFrom moves every session homed on the dead node to the
// standby's last shipped copy, or declares it lost. A session mid-
// migration is skipped here: its migration is about to fail against
// the dead node, and the abort path re-runs this sweep after the
// rollback makes the entry visible again (idempotent per entry —
// already-moved and already-lost sessions fall through the guards).
func (rt *Router) failoverFrom(dead *node) {
	// shipMu: wait out any in-flight standby copy replacement, so the
	// shipped marks consulted below describe complete copies.
	rt.shipMu.Lock()
	defer rt.shipMu.Unlock()
	standby := rt.standby
	standbyOK := standby != nil && standby != dead && rt.probe(standby)
	for _, e := range rt.entries() {
		e.mu.Lock()
		if e.home != dead || e.lost || e.migrating {
			e.mu.Unlock()
			continue
		}
		if standbyOK && e.shipped {
			e.home = standby
			e.mu.Unlock()
			rt.cm.failoversTotal.Inc()
			rt.opts.Log.Infof("cluster: session %s failed over to standby %s", e.cid, standby.url)
			continue
		}
		e.lost = true
		e.mu.Unlock()
		rt.cm.lostTotal.Inc()
		rt.opts.Log.Infof("cluster: session %s lost with %s (no standby copy)", e.cid, dead.url)
	}
}

// CheckNow probes every node once (serving backends and standby) and
// applies the up/down transitions. The health loop calls this on its
// interval; tests and the demo call it directly.
func (rt *Router) CheckNow() {
	nodes := rt.backends
	if rt.standby != nil {
		nodes = append(append([]*node{}, rt.backends...), rt.standby)
	}
	for _, n := range nodes {
		if rt.probe(n) {
			rt.markUp(n)
		} else {
			// For the standby this only gates ship/failover
			// eligibility — unless it is hosting sessions
			// post-failover, in which case failoverFrom declares
			// them lost (no second standby to fall back to).
			rt.markDown(n)
		}
	}
}
