package cluster

// This file is the router's data plane: the proxied predserve API. The
// router speaks the exact serve wire contract on both sides, HTTP to its
// clients and the same requests as COHWIRE2 frames to its backends
// (pool.go) — bodies (JSON or COHWIRE1) and session ids pass through
// untouched, because
// each backend holds a session under its cluster id ("cN"): the router
// creates sessions there under the ids it mints (PUT /v1/sessions/{id}),
// and a restore under the id its path names. A transport failure
// toward a backend triggers an
// immediate health probe (and possibly failover) and surfaces as 502
// with a machine code — event posts carry idempotency keys, so the
// resilient client retries them onto the post-failover route safely.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"cohpredict/internal/serve"
)

// testHookPreForward, when non-nil, runs after an events request has
// resolved its route and before the forward is issued — the window in
// which a concurrent migration or failover makes the resolved route
// stale. Tests use it to pin the 404 re-resolve path.
var testHookPreForward func(cid string)

// forward sends c's request to n and reads the reply into c. A transport
// failure (dial, reset, timeout, a malformed reply) returns an error; any
// reply, including a 5xx, returns nil.
func (rt *Router) forward(n *node, c *call) error {
	rt.cm.proxiedTotal.Inc()
	if err := n.streams.exchange(c, proxyTimeout); err != nil {
		rt.cm.proxyErrors.Inc()
		return err
	}
	return nil
}

// send forwards a bodiless request whose reply the caller does not read:
// the router's best-effort deletes.
func (rt *Router) send(n *node, method, target string) {
	c := newCall()
	c.request(method, target, nil, nil)
	_ = rt.forward(n, c)
	c.release()
}

// sessionPath is the backend target of session cid's route suffix.
func sessionPath(cid, suffix string) string {
	return "/v1/sessions/" + url.PathEscape(cid) + suffix
}

// writeProxied relays a backend's reply to the client.
func writeProxied(w http.ResponseWriter, c *call) {
	h := w.Header()
	if c.ContentType != "" {
		h["Content-Type"] = []string{c.ContentType}
	}
	if c.RequestID != "" {
		h["X-Request-Id"] = []string{c.RequestID}
	}
	h["Content-Length"] = []string{strconv.Itoa(len(c.Body))}
	w.WriteHeader(c.Status)
	_, _ = w.Write(c.Body)
}

// badGateway maps a router→backend transport failure to the client:
// probe the backend (possibly triggering failover) and answer 502.
func (rt *Router) badGateway(n *node, err error) error {
	rt.noteBackendFailure(n)
	return codedErr(http.StatusBadGateway, CodeBadGateway,
		fmt.Errorf("cluster: backend %s unreachable: %w", n.url, err))
}

// readBody reads the client request's body into c.in, at most limit
// bytes.
func (c *call) readBody(r *http.Request, limit int64) error {
	body, err := serve.ReadRequest(c.in[:0], r, limit)
	c.in = body
	if err != nil {
		return httpErr(http.StatusRequestEntityTooLarge, fmt.Errorf("cluster: reading body: %w", err))
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// maxCreateAttempts bounds the ids one create tries before it gives up.
const maxCreateAttempts = 8

// handleCreate mints a cluster id, places it on the ring, and creates
// the session on that backend under the same id. The backend validates
// the body and its echo is relayed as is. The id can already be taken
// there: a restore through the router may have claimed it, or the
// backend may hold it from before the router started. A backend 409, or
// an id lost at the table insert, moves the create to the next id, at
// most maxCreateAttempts times.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) error {
	c := newCall()
	defer c.release()
	if err := c.readBody(r, maxBodyBytes); err != nil {
		return err
	}
	for attempt := 0; attempt < maxCreateAttempts; attempt++ {
		cid := rt.mintID()
		n := rt.ring.owner(cid)
		if n == nil {
			return ErrNoBackend
		}
		c.request(http.MethodPut, sessionPath(cid, ""), r.Header, c.in)
		if ferr := rt.forward(n, c); ferr != nil {
			return rt.badGateway(n, ferr)
		}
		if c.Status == http.StatusConflict {
			continue
		}
		if c.Status == http.StatusCreated {
			ok, err := rt.register(n, cid, c.Body)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		writeProxied(w, c)
		return nil
	}
	return httpErr(http.StatusServiceUnavailable,
		fmt.Errorf("cluster: no free session id in %d attempts", maxCreateAttempts))
}

// register adds the session backend n has just created under cid to the
// routing table. When a concurrent create or restore registered cid
// first, it deletes n's copy, so no two sessions share an id, and
// reports false.
func (rt *Router) register(n *node, cid string, echo []byte) (bool, error) {
	var info serve.CreateSessionResponse
	if err := json.Unmarshal(echo, &info); err != nil {
		return false, fmt.Errorf("cluster: backend %s create echo: %w", n.url, err)
	}
	rt.mu.Lock()
	_, taken := rt.sessions[cid]
	if !taken {
		rt.sessions[cid] = &entry{cid: cid, info: info, home: n}
	}
	rt.mu.Unlock()
	if taken {
		rt.send(n, http.MethodDelete, sessionPath(cid, ""))
	}
	return !taken, nil
}

// unregister removes e from the routing table if the table still holds
// it, and reports whether it did.
func (rt *Router) unregister(e *entry) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sessions[e.cid] != e {
		return false
	}
	delete(rt.sessions, e.cid)
	return true
}

// mintID reserves the next free cluster session id. Restores register
// caller-named ids (often of the "cN" form — a migration or DR restore
// reuses the original cluster id), so the counter skips ids the table
// already holds instead of clobbering them.
func (rt *Router) mintID() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		rt.nextID++
		cid := fmt.Sprintf("c%d", rt.nextID)
		if _, taken := rt.sessions[cid]; !taken {
			return cid
		}
	}
}

// handleList reports the cluster-wide session table (the creation
// echoes with cluster ids), in id order.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) error {
	resp := serve.SessionListResponse{}
	for _, e := range rt.entries() {
		resp.Sessions = append(resp.Sessions, e.info)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleEvents is the hot proxied route. It resolves the session's
// placement (parking through a migration flip), forwards the body
// verbatim, and relays the backend's response. A 404 from the backend
// after the route moved re-resolves once — ships and deletes are
// best-effort, so a backend may legitimately have forgotten a session
// the table still places on it.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	c := newCall()
	defer c.release()
	if err := c.readBody(r, maxBodyBytes); err != nil {
		return err
	}
	c.request(http.MethodPost, r.URL.EscapedPath(), r.Header, c.in)
	for attempt := 0; ; attempt++ {
		n, rerr := rt.resolve(e)
		if rerr != nil {
			return rerr
		}
		if testHookPreForward != nil {
			testHookPreForward(cid)
		}
		ferr := rt.forward(n, c)
		e.release()
		if ferr != nil {
			return rt.badGateway(n, ferr)
		}
		if c.Status == http.StatusNotFound && attempt == 0 && e.moved(n) {
			rt.cm.staleRetries.Inc()
			continue
		}
		writeProxied(w, c)
		return nil
	}
}

// moved reports whether the entry's home differs from the one the
// caller resolved — the stale-route test after a backend 404.
func (e *entry) moved(n *node) bool {
	cur, _, _, lost := e.placement()
	return !lost && cur != n
}

// forwardSession proxies a session-scoped GET (stats, snapshot) to the
// session's home and relays the reply. The home serves the same path:
// it holds the session under the same id.
func (rt *Router) forwardSession(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	n, err := rt.resolve(e)
	if err != nil {
		return err
	}
	c := newCall()
	defer c.release()
	c.request(http.MethodGet, r.URL.EscapedPath(), r.Header, nil)
	ferr := rt.forward(n, c)
	e.release()
	if ferr != nil {
		return rt.badGateway(n, ferr)
	}
	writeProxied(w, c)
	return nil
}

// handleSnapshotPut restores a snapshot as a new cluster session named
// by the request path, placed on the ring like a create, and held by
// its backend under the same id.
func (rt *Router) handleSnapshotPut(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	if err := checkID("session", cid); err != nil {
		return httpErr(http.StatusBadRequest, err)
	}
	if _, err := rt.lookup(cid); err == nil {
		return errExists(cid)
	}
	c := newCall()
	defer c.release()
	if err := c.readBody(r, maxSnapshotBytes); err != nil {
		return err
	}
	n := rt.ring.owner(cid)
	if n == nil {
		return ErrNoBackend
	}
	c.request(http.MethodPut, r.URL.RequestURI(), r.Header, c.in)
	if ferr := rt.forward(n, c); ferr != nil {
		return rt.badGateway(n, ferr)
	}
	if c.Status == http.StatusCreated {
		ok, err := rt.register(n, cid, c.Body)
		if err != nil {
			return err
		}
		if !ok {
			return errExists(cid)
		}
	}
	writeProxied(w, c)
	return nil
}

func errExists(cid string) error {
	return httpErr(http.StatusConflict, fmt.Errorf("cluster: session %q already exists", cid))
}

// handleDelete removes a session cluster-wide: from its home, from the
// routing table, and from the standby's shipped copy (best-effort). A
// lost session is simply forgotten.
//
// Only the delete that claims the entry forwards the home DELETE; a
// second delete of it answers 404, and a restore of its id 409 while the
// entry is in the table. A second DELETE sent by id could otherwise
// reach the home after the first had unlinked the entry and a restore
// had put a successor under the id, and remove the successor's copy.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	if !e.deleting.CompareAndSwap(false, true) {
		return httpErr(http.StatusNotFound, fmt.Errorf("cluster: session %q is already being deleted", cid))
	}
	n, rerr := rt.resolve(e)
	switch {
	case errors.Is(rerr, ErrSessionLost):
	case rerr != nil:
		e.deleting.Store(false)
		return rerr
	default:
		c := newCall()
		defer c.release()
		c.request(http.MethodDelete, r.URL.EscapedPath(), r.Header, nil)
		ferr := rt.forward(n, c)
		e.release()
		if ferr != nil || c.Status != http.StatusOK {
			// The home refused or was not reached, so a later delete may
			// try again.
			e.deleting.Store(false)
			if ferr != nil {
				return rt.badGateway(n, ferr)
			}
			writeProxied(w, c)
			return nil
		}
	}
	// Unlink and drop the standby copy under shipMu: a ship of this
	// session either finished first, and its copy is deleted here, or
	// finds the session gone and copies nothing. Only the delete that
	// unlinks the entry touches the standby, so a successor registered
	// under the same id keeps its copy.
	rt.shipMu.Lock()
	if rt.unregister(e) && rt.standby != nil && rt.standby.healthy.Load() && rt.standby != n {
		rt.send(rt.standby, http.MethodDelete, sessionPath(cid, ""))
	}
	rt.shipMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"id": cid, "status": "deleted"})
	return nil
}

// handleHealthz reports the router's own liveness plus the backend
// health census; the router is "degraded" (but still 200 — it can
// still serve sessions homed on live nodes) while any backend is down,
// and 503 only when no serving backend is healthy.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	healthy := 0
	for _, n := range rt.backends {
		if n.healthy.Load() {
			healthy++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case healthy == 0:
		status, code = "no_backends", http.StatusServiceUnavailable
	case healthy < len(rt.backends):
		status = "degraded"
	}
	writeJSON(w, code, map[string]interface{}{
		"status": status, "backends": len(rt.backends), "healthy": healthy,
	})
	return nil
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, r *http.Request) error {
	data, err := EncodeClusterStatus(rt.Status())
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
	return nil
}

// handleMigrate runs one live migration, synchronously: the response
// arrives after the flip (or the rollback).
func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) error {
	c := newCall()
	defer c.release()
	if err := c.readBody(r, maxBodyBytes); err != nil {
		return err
	}
	req, derr := DecodeMigrateRequest(c.in)
	if derr != nil {
		return httpErr(http.StatusBadRequest, derr)
	}
	if err := rt.Migrate(req.Session, req.Target); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"session": req.Session, "target": req.Target, "status": "migrated",
	})
	return nil
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	return serve.WriteMetrics(w, r, rt.opts.Registry)
}
