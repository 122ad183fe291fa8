package cluster

// This file is the router's data plane: the proxied predserve API. The
// router speaks the exact serve wire contract on both sides — bodies
// (JSON or COHWIRE1) and session ids pass through untouched, because
// each backend holds a session under its cluster id ("cN"): the router
// creates sessions there under the ids it mints (PUT /v1/sessions/{id}),
// and a restore under the id its path names. A transport failure
// toward a backend triggers an
// immediate health probe (and possibly failover) and surfaces as 502
// with a machine code — event posts carry idempotency keys, so the
// resilient client retries them onto the post-failover route safely.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"cohpredict/internal/serve"
)

// testHookPreForward, when non-nil, runs after an events request has
// resolved its route and before the forward is issued — the window in
// which a concurrent migration or failover makes the resolved route
// stale. Tests use it to pin the 404 re-resolve path.
var testHookPreForward func(cid string)

// proxyResponse is one backend response, fully buffered.
type proxyResponse struct {
	status int
	header http.Header
	body   []byte
}

// forward issues one request to a backend and buffers the response.
// Transport-level failures (dial, reset, timeout) return an error; any
// HTTP response, including 5xx, returns a proxyResponse.
func (rt *Router) forward(n *node, method, path string, body []byte, hdr http.Header) (*proxyResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, n.url+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	rt.cm.proxiedTotal.Inc()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.cm.proxyErrors.Inc()
		return nil, err
	}
	defer resp.Body.Close()
	data, err := serve.ReadBody(nil, io.LimitReader(resp.Body, maxSnapshotBytes+1), resp.ContentLength, maxSnapshotBytes)
	if err != nil {
		rt.cm.proxyErrors.Inc()
		return nil, err
	}
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("cluster: backend %s response exceeds %d bytes", n.url, maxSnapshotBytes)
	}
	return &proxyResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// copyHeaders extracts the request headers the serve contract cares
// about; hop-by-hop and incidental headers stay behind.
func copyHeaders(r *http.Request) http.Header {
	hdr := make(http.Header, 5)
	for _, k := range []string{"Content-Type", "Accept", "Idempotency-Key", "Idempotency-Ack", "X-Request-Id"} {
		if v := r.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	return hdr
}

// writeProxied relays a buffered backend response to the client.
func writeProxied(w http.ResponseWriter, pr *proxyResponse) {
	for _, k := range []string{"Content-Type", "X-Request-Id"} {
		if v := pr.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("Content-Length", fmt.Sprintf("%d", len(pr.body)))
	w.WriteHeader(pr.status)
	_, _ = w.Write(pr.body)
}

// badGateway maps a router→backend transport failure to the client:
// probe the backend (possibly triggering failover) and answer 502.
func (rt *Router) badGateway(n *node, err error) error {
	rt.noteBackendFailure(n)
	return codedErr(http.StatusBadGateway, CodeBadGateway,
		fmt.Errorf("cluster: backend %s unreachable: %w", n.url, err))
}

func (rt *Router) readBody(r *http.Request, limit int64) ([]byte, error) {
	body, err := serve.ReadRequest(nil, r, limit)
	if err != nil {
		return nil, httpErr(http.StatusRequestEntityTooLarge, fmt.Errorf("cluster: reading body: %w", err))
	}
	return body, nil
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
	body, err := rt.readBody(r, maxBodyBytes)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < maxCreateAttempts; attempt++ {
		cid := rt.mintID()
		n := rt.ring.owner(cid)
		if n == nil {
			return ErrNoBackend
		}
		pr, ferr := rt.forward(n, http.MethodPut, "/v1/sessions/"+cid, body, copyHeaders(r))
		if ferr != nil {
			return rt.badGateway(n, ferr)
		}
		if pr.status == http.StatusConflict {
			continue
		}
		if pr.status == http.StatusCreated {
			ok, err := rt.register(n, cid, pr.body)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		writeProxied(w, pr)
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
		_, _ = rt.forward(n, http.MethodDelete, "/v1/sessions/"+cid, nil, nil)
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
	body, err := rt.readBody(r, maxBodyBytes)
	if err != nil {
		return err
	}
	hdr := copyHeaders(r)
	for attempt := 0; ; attempt++ {
		n, rerr := rt.resolve(e)
		if rerr != nil {
			return rerr
		}
		if testHookPreForward != nil {
			testHookPreForward(cid)
		}
		pr, ferr := rt.forward(n, http.MethodPost, "/v1/sessions/"+cid+"/events", body, hdr)
		e.release()
		if ferr != nil {
			return rt.badGateway(n, ferr)
		}
		if pr.status == http.StatusNotFound && attempt == 0 && e.moved(n) {
			rt.cm.staleRetries.Inc()
			continue
		}
		writeProxied(w, pr)
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
	pr, ferr := rt.forward(n, http.MethodGet, r.URL.Path, nil, copyHeaders(r))
	e.release()
	if ferr != nil {
		return rt.badGateway(n, ferr)
	}
	writeProxied(w, pr)
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
	body, err := rt.readBody(r, maxSnapshotBytes)
	if err != nil {
		return err
	}
	n := rt.ring.owner(cid)
	if n == nil {
		return ErrNoBackend
	}
	q := ""
	if raw := r.URL.RawQuery; raw != "" {
		q = "?" + raw
	}
	pr, ferr := rt.forward(n, http.MethodPut, "/v1/sessions/"+cid+"/snapshot"+q, body, copyHeaders(r))
	if ferr != nil {
		return rt.badGateway(n, ferr)
	}
	if pr.status == http.StatusCreated {
		ok, err := rt.register(n, cid, pr.body)
		if err != nil {
			return err
		}
		if !ok {
			return errExists(cid)
		}
	}
	writeProxied(w, pr)
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
		pr, ferr := rt.forward(n, http.MethodDelete, "/v1/sessions/"+cid, nil, copyHeaders(r))
		e.release()
		if ferr != nil || pr.status != http.StatusOK {
			// The home refused or was not reached, so a later delete may
			// try again.
			e.deleting.Store(false)
			if ferr != nil {
				return rt.badGateway(n, ferr)
			}
			writeProxied(w, pr)
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
		_, _ = rt.forward(rt.standby, http.MethodDelete, "/v1/sessions/"+cid, nil, nil)
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
	body, err := rt.readBody(r, maxBodyBytes)
	if err != nil {
		return err
	}
	req, derr := DecodeMigrateRequest(body)
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
