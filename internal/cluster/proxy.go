package cluster

// This file is the router's data plane: the proxied predserve API. The
// router speaks the exact serve wire contract on both sides — bodies
// (JSON or COHWIRE1) pass through untouched; only session ids are
// rewritten between the cluster namespace ("cN") and each backend's
// local namespace. A transport failure toward a backend triggers an
// immediate health probe (and possibly failover) and surfaces as 502
// with a machine code — event posts carry idempotency keys, so the
// resilient client retries them onto the post-failover route safely.

import (
	"bytes"
	"encoding/json"
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
	hdr := make(http.Header, 4)
	for _, k := range []string{"Content-Type", "Accept", "Idempotency-Key", "X-Request-Id"} {
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

// handleCreate places a new session on the ring and mints its cluster
// id. The backend validates the body; the router only rewrites the id
// in the echo.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) error {
	body, err := rt.readBody(r, rt.opts.MaxBodyBytes)
	if err != nil {
		return err
	}
	cid := rt.mintID()
	n := rt.ring.owner(cid)
	if n == nil {
		return ErrNoBackend
	}
	pr, ferr := rt.forward(n, http.MethodPost, "/v1/sessions", body, copyHeaders(r))
	if ferr != nil {
		return rt.badGateway(n, ferr)
	}
	if pr.status != http.StatusCreated {
		writeProxied(w, pr)
		return nil
	}
	var info serve.CreateSessionResponse
	if err := json.Unmarshal(pr.body, &info); err != nil {
		return fmt.Errorf("cluster: backend %s create echo: %w", n.url, err)
	}
	rt.mu.Lock()
	// Re-check at insert: a concurrent restore (handleSnapshotPut) may
	// have claimed the minted id while the backend create was in
	// flight. Re-minting moves this session off the id its ring
	// placement was hashed from — harmless, since routing consults the
	// table, never the ring, after placement.
	for {
		if _, taken := rt.sessions[cid]; !taken {
			break
		}
		rt.nextID++
		cid = fmt.Sprintf("c%d", rt.nextID)
	}
	e := &entry{cid: cid, localID: info.ID, home: n}
	info.ID = cid
	e.info = info
	rt.sessions[cid] = e
	rt.mu.Unlock()
	writeJSON(w, http.StatusCreated, info)
	return nil
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
// best-effort, so a backend may legitimately have forgotten a local id
// the table still names.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	body, err := rt.readBody(r, rt.opts.MaxBodyBytes)
	if err != nil {
		return err
	}
	hdr := copyHeaders(r)
	for attempt := 0; ; attempt++ {
		n, localID, rerr := rt.resolve(e)
		if rerr != nil {
			return rerr
		}
		if testHookPreForward != nil {
			testHookPreForward(cid)
		}
		pr, ferr := rt.forward(n, http.MethodPost, "/v1/sessions/"+localID+"/events", body, hdr)
		e.release()
		if ferr != nil {
			return rt.badGateway(n, ferr)
		}
		if pr.status == http.StatusNotFound && attempt == 0 && e.moved(n, localID) {
			rt.cm.staleRetries.Inc()
			continue
		}
		writeProxied(w, pr)
		return nil
	}
}

// moved reports whether the entry's placement differs from the one the
// caller resolved — the stale-route test after a backend 404.
func (e *entry) moved(n *node, localID string) bool {
	cur, curID, _, _, lost := e.placement()
	return !lost && (cur != n || curID != localID)
}

// forwardSession proxies a session-scoped control request (stats,
// snapshot GET, delete), rewriting the path to the local id.
func (rt *Router) forwardSession(w http.ResponseWriter, r *http.Request, method, suffix string, body []byte) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	n, localID, err := rt.resolve(e)
	if err != nil {
		return err
	}
	pr, ferr := rt.forward(n, method, "/v1/sessions/"+localID+suffix, body, copyHeaders(r))
	e.release()
	if ferr != nil {
		return rt.badGateway(n, ferr)
	}
	return rt.relaySessionResponse(w, e, pr)
}

// relaySessionResponse rewrites the backend's local session id back to
// the cluster id in JSON response envelopes that carry one.
func (rt *Router) relaySessionResponse(w http.ResponseWriter, e *entry, pr *proxyResponse) error {
	if pr.status == http.StatusOK && bytes.Contains(pr.body, []byte(`"id"`)) {
		var doc map[string]interface{}
		if err := json.Unmarshal(pr.body, &doc); err == nil {
			if _, ok := doc["id"]; ok {
				doc["id"] = e.cid
				if re, err := json.Marshal(doc); err == nil {
					pr.body = re
					pr.header.Set("Content-Type", "application/json")
				}
			}
		}
	}
	writeProxied(w, pr)
	return nil
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) error {
	return rt.forwardSession(w, r, http.MethodGet, "/stats", nil)
}

func (rt *Router) handleSnapshotGet(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	n, localID, err := rt.resolve(e)
	if err != nil {
		return err
	}
	pr, ferr := rt.forward(n, http.MethodGet, "/v1/sessions/"+localID+"/snapshot", nil, copyHeaders(r))
	e.release()
	if ferr != nil {
		return rt.badGateway(n, ferr)
	}
	writeProxied(w, pr)
	return nil
}

// handleSnapshotPut restores a snapshot as a new cluster session named
// by the request path, placed on the ring like a create. The session
// is registered under the same id on the backend, so the cluster and
// local namespaces coincide for restored sessions.
func (rt *Router) handleSnapshotPut(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	if err := checkID("session", cid); err != nil {
		return httpErr(http.StatusBadRequest, err)
	}
	rt.mu.Lock()
	_, exists := rt.sessions[cid]
	rt.mu.Unlock()
	if exists {
		return httpErr(http.StatusConflict, fmt.Errorf("cluster: session %q already exists", cid))
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
	if pr.status != http.StatusCreated {
		writeProxied(w, pr)
		return nil
	}
	var info serve.CreateSessionResponse
	if err := json.Unmarshal(pr.body, &info); err != nil {
		return fmt.Errorf("cluster: backend %s restore echo: %w", n.url, err)
	}
	e := &entry{cid: cid, localID: cid, home: n, info: info}
	rt.mu.Lock()
	if _, dup := rt.sessions[cid]; dup {
		rt.mu.Unlock()
		return httpErr(http.StatusConflict, fmt.Errorf("cluster: session %q already exists", cid))
	}
	rt.sessions[cid] = e
	rt.mu.Unlock()
	writeProxied(w, pr)
	return nil
}

// handleDelete removes a session cluster-wide: from its home, from the
// standby's shipped copy (best-effort), and from the routing table. A
// lost session is simply forgotten.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) error {
	cid := r.PathValue("id")
	e, err := rt.lookup(cid)
	if err != nil {
		return err
	}
	n, localID, rerr := rt.resolve(e)
	if rerr != nil && rerr != ErrSessionLost {
		return rerr
	}
	if rerr == nil {
		pr, ferr := rt.forward(n, http.MethodDelete, "/v1/sessions/"+localID, nil, copyHeaders(r))
		e.release()
		if ferr != nil {
			return rt.badGateway(n, ferr)
		}
		if pr.status != http.StatusOK {
			writeProxied(w, pr)
			return nil
		}
	}
	if rt.standby != nil && rt.standby.healthy.Load() && (n == nil || rt.standby != n) {
		_, _ = rt.forward(rt.standby, http.MethodDelete, "/v1/sessions/"+cid, nil, nil)
	}
	rt.mu.Lock()
	delete(rt.sessions, cid)
	rt.mu.Unlock()
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
	body, err := rt.readBody(r, rt.opts.MaxBodyBytes)
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
	if rt.opts.Registry == nil {
		return httpErr(http.StatusNotFound, fmt.Errorf("cluster: no registry configured"))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return rt.opts.Registry.WritePrometheus(w)
}
