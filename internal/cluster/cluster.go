// Package cluster is the horizontal tier over predserve: a front router
// that consistent-hashes sessions across N backend instances and keeps
// serving through the failures a single process cannot survive. Within
// one process predserve already scales (one table and lock per session) and
// already survives a kill it can see coming (COHSNAP1 checkpoint /
// restore); this package closes the remaining gap — a node that dies
// with no warning, and a node that must shed load while its sessions
// are live.
//
// The moving parts:
//
//   - Placement. New sessions land on a backend chosen by a consistent
//     hash ring over the configured backend URLs (64 virtual points per
//     node), skipping unhealthy nodes. The router owns the session
//     namespace ("cN") and creates each session on its backend under
//     that id, so every node that holds a session holds it under the
//     name the routing table knows it by.
//
//   - Live migration. Migrate drains a session (new requests park at
//     the router, in-flight forwards finish), GETs its COHSNAP1
//     snapshot from the old node, PUTs it to the new one under the
//     same id, atomically flips the routing table, and replays the
//     parked requests against the new home. Idempotency keys ride
//     along, so a batch that trained on the old node and parked its
//     retry during the flip replays from the migrated idempotency
//     cache instead of training twice.
//
//   - Warm standby. ShipNow (and the background replication loop)
//     periodically ships every session's snapshot to the designated
//     standby node. When a backend dies — detected by a health probe
//     after a proxy failure, or by the health loop — its sessions flip
//     to the standby at the last shipped state, so an unannounced kill
//     loses at most one flush interval. A session with no shipped copy
//     (or a dead standby) is lost, reported with 410 and a machine
//     code, never silently re-created empty.
//
// The router's own state (routing table, health marks, migration and
// park bookkeeping) carries predlint guardedby/atomic contracts — the
// concurrency discipline is a lint gate, not a convention.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// The router's bounds.
const (
	// maxParked bounds requests parked per session during a migration
	// flip; overflow is refused with 503 (retryable).
	maxParked = 64
	// parkTimeout bounds how long a parked request waits for the flip.
	parkTimeout = 5 * time.Second
	// proxyTimeout bounds one forwarded request, probeTimeout one health
	// probe.
	proxyTimeout = 10 * time.Second
	probeTimeout = time.Second
	// maxBodyBytes bounds proxied request bodies other than snapshots,
	// at the bound a backend reads them with.
	maxBodyBytes = serve.MaxBodyBytes
	// maxSnapshotBytes bounds snapshot transfers (migration, shipping,
	// and the proxied snapshot routes) independently of event bodies,
	// at the bound a backend's snapshot PUT reads with.
	maxSnapshotBytes = serve.MaxSnapshotBytes
)

// Error codes machine-classifying router error envelopes (the serve
// layer's ErrorResponse carries them).
const (
	// CodeSessionLost marks a session whose home died with no shipped
	// standby copy: the state is gone and a retry cannot help.
	CodeSessionLost = "session_lost"
	// CodeBadGateway marks a transport failure between router and
	// backend. Event posts carry idempotency keys, so clients retry
	// these safely; non-idempotent requests must not.
	CodeBadGateway = "bad_gateway"
)

// Sentinel errors for the router's refusal modes.
var (
	// ErrNoBackend: no healthy backend can take the request.
	ErrNoBackend = errors.New("cluster: no healthy backend")
	// ErrSessionLost: the session's home died and no standby copy was
	// shipped (or the standby is dead too).
	ErrSessionLost = errors.New("cluster: session lost: home backend died with no standby copy")
	// ErrMigrating: a migration for this session is already in flight.
	ErrMigrating = errors.New("cluster: session already migrating")
	// errParkOverflow: too many requests parked during one flip.
	errParkOverflow = errors.New("cluster: migration park queue full")
)

// Options configures a Router. Backends is required; everything else
// has serviceable defaults.
type Options struct {
	// Backends are the serving predserve base URLs (e.g.
	// "http://10.0.0.1:8091"). At least one is required.
	Backends []string
	// Standby is the warm-standby predserve base URL; "" disables
	// snapshot shipping and failover.
	Standby string
	// Registry receives the router's cluster_* metrics, which also
	// feed the /v1/cluster tallies; nil gives the router a registry of
	// its own.
	Registry *obs.Registry
	// Log receives router progress lines; nil is silent.
	Log *obs.Logger
	// HealthInterval runs the background health loop; 0 disables it
	// (tests drive CheckNow explicitly).
	HealthInterval time.Duration
	// ShipInterval runs the background replication loop; 0 disables it
	// (tests drive ShipNow explicitly).
	ShipInterval time.Duration
}

// node is one predserve instance the router talks to.
type node struct {
	url     string      // base URL, no trailing slash
	standby bool        // the designated warm standby
	healthy atomic.Bool // health mark: probes and proxy failures flip it
	streams pool        // the router's COHWIRE2 streams to it
}

// entry is one cluster session's routing-table row. home is the
// session's current placement; migrating marks a drain→flip window
// during which new requests park on flip.
type entry struct {
	cid  string                      // cluster id, immutable
	info serve.CreateSessionResponse // creation echo, immutable

	mu        sync.Mutex
	home      *node         //predlint:guardedby mu
	migrating bool          //predlint:guardedby mu
	parked    int           //predlint:guardedby mu
	flip      chan struct{} //predlint:guardedby mu
	shipped   bool          //predlint:guardedby mu
	lost      bool          //predlint:guardedby mu

	// inflight counts forwarded requests holding the current route; a
	// migration's drain waits on it. Add only happens under mu with
	// migrating false, and the drain sets migrating under the same mu
	// before waiting, so Add can never race the Wait.
	inflight sync.WaitGroup

	// deleting is claimed by the one delete that forwards the entry's
	// home DELETE, and released only when the home refuses it.
	deleting atomic.Bool
}

// Router fronts a predserve cluster: placement, proxying, migration,
// replication, failover, and the /v1/cluster control surface.
type Router struct {
	opts     Options
	backends []*node // serving nodes, configured order, immutable
	standby  *node   // nil when no standby configured
	ring     ring
	cm       *clusterMetrics
	// parkWait is parkTimeout; white-box tests shorten it.
	parkWait time.Duration

	mu       sync.Mutex
	sessions map[string]*entry //predlint:guardedby mu
	nextID   int               //predlint:guardedby mu

	// migrateMu serializes migrations and replication ships: both move
	// snapshots between nodes and must not interleave on one session.
	migrateMu sync.Mutex
	// shipMu covers each ship, from its snapshot GET to the standby's
	// delete→restore replacement. failoverFrom takes it before
	// consulting shipped marks, so a failover never routes to a standby
	// copy mid-replacement, and handleDelete takes it to unlink a
	// session and drop its standby copy, so a ship never restores a
	// deleted session. Lock order: migrateMu → shipMu (never the
	// reverse).
	shipMu sync.Mutex

	loopStop chan struct{}
	loopWG   sync.WaitGroup
	closed   atomic.Bool
}

// New validates the options and builds the router. Background health
// and replication loops start only for non-zero intervals; Close stops
// them.
func New(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one backend URL is required")
	}
	if opts.Registry == nil {
		opts.Registry = obs.New()
	}

	rt := &Router{
		opts:     opts,
		sessions: make(map[string]*entry),
		cm:       newClusterMetrics(opts.Registry),
		parkWait: parkTimeout,
	}
	seen := make(map[string]bool)
	for _, raw := range opts.Backends {
		n, err := newNode(raw)
		if err != nil {
			return nil, err
		}
		if seen[n.url] {
			return nil, fmt.Errorf("cluster: backend %s configured twice", n.url)
		}
		seen[n.url] = true
		rt.backends = append(rt.backends, n)
	}
	if opts.Standby != "" {
		n, err := newNode(opts.Standby)
		if err != nil {
			return nil, err
		}
		if seen[n.url] {
			return nil, fmt.Errorf("cluster: standby %s is also a serving backend", n.url)
		}
		n.standby = true
		rt.standby = n
	}
	rt.ring = buildRing(rt.backends)
	rt.cm.backendsHealthy.Set(float64(len(rt.backends)))

	if opts.HealthInterval > 0 || (opts.ShipInterval > 0 && rt.standby != nil) {
		rt.loopStop = make(chan struct{})
		if opts.HealthInterval > 0 {
			rt.loopWG.Add(1)
			go rt.every(opts.HealthInterval, rt.CheckNow)
		}
		if opts.ShipInterval > 0 && rt.standby != nil {
			rt.loopWG.Add(1)
			go rt.every(opts.ShipInterval, func() { rt.ShipNow() })
		}
	}
	return rt, nil
}

// newNode validates a backend base URL and builds its healthy node. The
// URL is kept without a trailing slash. Its streams address the backend's
// root, so a URL with a path is refused.
func newNode(raw string) (*node, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend URL %q: %w", raw, err)
	}
	switch {
	case u.Scheme != "http" && u.Scheme != "https":
		return nil, fmt.Errorf("cluster: backend URL %q: want http or https", raw)
	case u.Host == "":
		return nil, fmt.Errorf("cluster: backend URL %q has no host", raw)
	case strings.Trim(u.Path, "/") != "" || u.RawQuery != "":
		return nil, fmt.Errorf("cluster: backend URL %q has a path or query", raw)
	}
	secure, port := u.Scheme == "https", u.Port()
	if port == "" {
		port = "80"
		if secure {
			port = "443"
		}
	}
	n := &node{url: strings.TrimRight(raw, "/")}
	n.streams.secure, n.streams.addr = secure, net.JoinHostPort(u.Hostname(), port)
	n.healthy.Store(true)
	return n, nil
}

// Close stops the background loops and closes the router's streams to its
// backends: the idle ones at once, and the busy ones as their requests
// finish. The router's HTTP handler stays usable (the caller owns the
// listener); a request after Close dials a stream and closes it after
// the reply. Close is idempotent.
func (rt *Router) Close() {
	if rt.closed.Swap(true) {
		return
	}
	if rt.loopStop != nil {
		close(rt.loopStop)
	}
	rt.loopWG.Wait()
	for _, n := range rt.backends {
		n.streams.drop(true)
	}
	if rt.standby != nil {
		rt.standby.streams.drop(true)
	}
}

// Handler returns the router's full route table: the proxied predserve
// API plus the cluster control surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.wrap(rt.handleCreate))
	mux.HandleFunc("GET /v1/sessions", rt.wrap(rt.handleList))
	mux.HandleFunc("POST /v1/sessions/{id}/events", rt.wrap(rt.handleEvents))
	mux.HandleFunc("GET /v1/sessions/{id}/stats", rt.wrap(rt.forwardSession))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", rt.wrap(rt.forwardSession))
	mux.HandleFunc("PUT /v1/sessions/{id}/snapshot", rt.wrap(rt.handleSnapshotPut))
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.wrap(rt.handleDelete))
	mux.HandleFunc("GET /healthz", rt.wrap(rt.handleHealthz))
	mux.HandleFunc("GET /v1/cluster", rt.wrap(rt.handleClusterStatus))
	mux.HandleFunc("POST /v1/cluster/migrate", rt.wrap(rt.handleMigrate))
	mux.HandleFunc("GET /metrics", rt.wrap(rt.handleMetrics))
	return mux
}

// apiError carries an HTTP status and machine code with an error.
type apiError struct {
	status int
	code   string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }

func httpErr(status int, err error) error { return &apiError{status: status, err: err} }

func codedErr(status int, code string, err error) error {
	return &apiError{status: status, code: code, err: err}
}

// wrap adapts an error-returning handler, mapping router sentinels to
// statuses and counting requests and errors.
func (rt *Router) wrap(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.cm.requestsTotal.Inc()
		err := h(w, r)
		if err == nil {
			return
		}
		status, code := http.StatusInternalServerError, ""
		var ae *apiError
		switch {
		case errors.As(err, &ae):
			status, code = ae.status, ae.code
		case errors.Is(err, ErrNoBackend), errors.Is(err, errParkOverflow):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrSessionLost):
			status, code = http.StatusGone, CodeSessionLost
		}
		rt.cm.errorsTotal.Inc()
		rt.opts.Log.Debugf("cluster: %s %s -> %d: %v", r.Method, r.URL.Path, status, err)
		writeJSON(w, status, serve.ErrorResponse{Error: err.Error(), Code: code})
	}
}

// lookup resolves a cluster session id, or 404s.
func (rt *Router) lookup(id string) (*entry, error) {
	rt.mu.Lock()
	e := rt.sessions[id]
	rt.mu.Unlock()
	if e == nil {
		return nil, httpErr(http.StatusNotFound, fmt.Errorf("cluster: no session %q", id))
	}
	return e, nil
}

// route resolves the entry's current placement under its lock. When a
// migration is in flight it returns a non-nil wait channel instead:
// the caller parks on it and re-resolves after the flip (unparking
// either way). On success the entry's in-flight count is held and the
// caller must release() after the forward.
func (e *entry) route(maxParked int) (n *node, wait <-chan struct{}, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lost {
		return nil, nil, ErrSessionLost
	}
	if e.migrating {
		if e.parked >= maxParked {
			return nil, nil, errParkOverflow
		}
		e.parked++
		return nil, e.flip, nil
	}
	e.inflight.Add(1)
	return e.home, nil, nil
}

func (e *entry) unpark() {
	e.mu.Lock()
	e.parked--
	e.mu.Unlock()
}

func (e *entry) release() { e.inflight.Done() }

// placement reads the entry's current route without holding it (status
// reporting, stale-route checks).
func (e *entry) placement() (n *node, migrating, shipped, lost bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.home, e.migrating, e.shipped, e.lost
}

// setShipped records whether the standby holds a complete copy.
func (e *entry) setShipped(v bool) {
	e.mu.Lock()
	e.shipped = v
	e.mu.Unlock()
}

// resolve runs the park-and-retry loop around route: it blocks through
// at most a few migration flips and returns a held placement.
func (rt *Router) resolve(e *entry) (*node, error) {
	for attempt := 0; ; attempt++ {
		n, wait, err := e.route(maxParked)
		if err != nil {
			return nil, err
		}
		if wait == nil {
			return n, nil
		}
		rt.cm.parked.Inc()
		if attempt >= 4 {
			e.unpark()
			return nil, httpErr(http.StatusServiceUnavailable,
				fmt.Errorf("cluster: session %s still migrating after %d flips", e.cid, attempt))
		}
		select {
		case <-wait:
			e.unpark()
		case <-time.After(rt.parkWait):
			e.unpark()
			return nil, httpErr(http.StatusServiceUnavailable,
				fmt.Errorf("cluster: migration flip for session %s timed out", e.cid))
		}
	}
}

// entries snapshots the routing table in cluster-id order.
func (rt *Router) entries() []*entry {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.sessions))
	//predlint:ignore determinism keys are sorted before use
	for id := range rt.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*entry, 0, len(ids))
	for _, id := range ids {
		out = append(out, rt.sessions[id])
	}
	rt.mu.Unlock()
	return out
}

// backendByURL resolves a serving backend by its (normalized) base URL.
func (rt *Router) backendByURL(u string) *node {
	u = strings.TrimRight(u, "/")
	for _, n := range rt.backends {
		if n.url == u {
			return n
		}
	}
	return nil
}

// Status assembles the /v1/cluster document: per-backend health and
// session counts, the routing table, and the lifecycle tallies, which
// are the cluster_* counters /metrics serves.
func (rt *Router) Status() *ClusterStatus {
	st := &ClusterStatus{
		Migrations:      rt.cm.migrationsTotal.Value(),
		MigrationAborts: rt.cm.migrationAborts.Value(),
		Failovers:       rt.cm.failoversTotal.Value(),
		Lost:            rt.cm.lostTotal.Value(),
		Ships:           rt.cm.shipsTotal.Value(),
		ShipFailures:    rt.cm.shipFailures.Value(),
		Parked:          rt.cm.parked.Value(),
	}
	counts := make(map[string]int)
	for _, e := range rt.entries() {
		n, migrating, shipped, lost := e.placement()
		ss := SessionStatus{ID: e.cid, Migrating: migrating, Shipped: shipped, Lost: lost}
		if !lost {
			ss.Backend = n.url
			counts[n.url]++
		}
		st.Sessions = append(st.Sessions, ss)
	}
	for _, n := range rt.backends {
		st.Backends = append(st.Backends, BackendStatus{
			URL: n.url, Healthy: n.healthy.Load(), Sessions: counts[n.url],
		})
	}
	if rt.standby != nil {
		st.Backends = append(st.Backends, BackendStatus{
			URL: rt.standby.url, Healthy: rt.standby.healthy.Load(),
			Standby: true, Sessions: counts[rt.standby.url],
		})
	}
	return st
}
