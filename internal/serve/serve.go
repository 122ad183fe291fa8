// Package serve hosts live prediction engines behind a JSON HTTP API —
// the repo's first long-lived process. The paper's predictors are
// inherently online (each directory event trains and queries a live
// table, §2–3), and this package is that vantage point as a service:
//
//	POST   /v1/sessions             create a session (scheme + machine)
//	                                under a minted "sN" id
//	PUT    /v1/sessions/{id}        create a session under the caller's id
//	GET    /v1/sessions             list sessions
//	POST   /v1/sessions/{id}/events ingest events (single or batched),
//	                                returning predicted sharing bitmaps
//	GET    /v1/sessions/{id}/stats  confusion / sensitivity / PVP summary
//	GET    /v1/sessions/{id}/snapshot  COHSNAP1 snapshot of a session
//	PUT    /v1/sessions/{id}/snapshot  restore a snapshot under the id,
//	                                kept dormant until its first use
//	DELETE /v1/sessions/{id}        drain and remove a session
//	GET    /healthz                 liveness and drain state
//	GET    /metrics                 Prometheus text (internal/obs), or the
//	                                obs.Snapshot JSON for Accept: application/json
//	GET    /debug/pprof/...         runtime profiles
//	GET    /v1/stream               upgrade to a COHWIRE2 stream (stream.go),
//	                                which carries the routes above
//
// Each session is one predictor table behind one lock: a post is
// admitted against a bounded queue (explicit 429 backpressure), then
// takes the session's table lock and runs eval.Apply over its events in
// request order on the caller's goroutine, as the offline engine does. A
// snapshot takes the same lock, so it falls between two posts. Drain is
// graceful: in-flight posts finish and their statistics are published
// before a session closes.
//
// The service's determinism contract mirrors the sweep engine's: a trace
// replayed through the API in order yields predictions and statistics
// byte-identical to eval.Evaluate.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
)

// A server's fixed bounds.
const (
	// MaxSessions bounds live sessions; a create past it is refused with
	// 429.
	MaxSessions = 64
	// MaxBodyBytes bounds request bodies but snapshot PUTs, which
	// MaxSnapshotBytes bounds; a longer body is refused with 413.
	MaxBodyBytes = 8 << 20
)

// Options configures a Server. The zero value is usable: metrics go to a
// nil (inert) registry. Every server enforces the same bounds,
// MaxSessions and MaxBodyBytes.
type Options struct {
	// Registry receives the service's metrics; nil disables them.
	Registry *obs.Registry
	// Log receives request-level progress lines; nil is silent.
	Log *obs.Logger
	// Fault, when non-nil, injects chaos into the event path: 5xx and
	// connection resets at the HTTP layer, drops at queue admission,
	// delays before the table lock and panics in the kernel under it.
	// Session-management routes
	// (create, snapshot, delete) are never injected — only the
	// idempotent event posts, which clients can retry safely.
	Fault *fault.Injector
	// Flight is the request flight recorder for the events route; nil
	// builds a default one (sample 1/64, 25ms slow threshold) against
	// Registry. Captures are served at /v1/debug/{requests,slow}.
	Flight *flight.Recorder
	// Record, when non-nil, captures the accepted event stream (every
	// session create and every batch that trains the engine) for
	// COHTRACE1 replay. Off by default; the predserve -record flag and
	// the record/replay tests turn it on.
	Record EventRecorder
}

// Server is the prediction service: a registry of live sessions plus the
// HTTP handlers that drive them.
type Server struct {
	opts Options
	om   *serveMetrics

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	draining bool
	// streams are the hijacked COHWIRE2 connections being served, which
	// Shutdown closes.
	streams map[net.Conn]bool //predlint:guardedby mu
}

// NewServer builds a server with the given options.
func NewServer(opts Options) *Server {
	if opts.Flight == nil {
		opts.Flight = flight.New(flight.Options{Registry: opts.Registry})
	}
	return &Server{
		opts:     opts,
		om:       newServeMetrics(opts.Registry),
		sessions: make(map[string]*Session),
	}
}

// Handler returns the service's full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.wrap(s.handleCreateSession))
	mux.HandleFunc("PUT /v1/sessions/{id}", s.wrap(s.handleCreateSession))
	mux.HandleFunc("GET /v1/sessions", s.wrap(s.handleListSessions))
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.wrap(s.handleStats))
	mux.HandleFunc("GET /v1/debug/requests", s.wrap(s.handleDebugRequests))
	mux.HandleFunc("GET /v1/debug/slow", s.wrap(s.handleDebugSlow))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.wrap(s.handleSnapshotGet))
	mux.HandleFunc("PUT /v1/sessions/{id}/snapshot", s.wrap(s.handleSnapshotPut))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.wrap(s.handleDeleteSession))
	mux.HandleFunc("GET /healthz", s.wrap(s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.wrap(s.handleMetrics))
	mux.HandleFunc("GET "+streamPath, s.handleStream)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// apiError carries an HTTP status with an error; handlers return it to
// pick a non-500 status.
type apiError struct {
	status int
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }

func httpErr(status int, err error) error { return &apiError{status: status, err: err} }

// wrap adapts an error-returning handler to http.HandlerFunc, counting
// requests and answering an error through failure.
func (s *Server) wrap(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.om.requestsTotal.Inc()
		if err := h(w, r); err != nil {
			status, env := s.failure(r, err)
			writeJSON(w, status, env)
		}
	}
}

// failure maps a handler error to its HTTP status and JSON envelope,
// counting the error (and a backpressure rejection) and logging it. wrap
// and the events route answer every error through it.
func (s *Server) failure(r *http.Request, err error) (int, ErrorResponse) {
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.Is(err, ErrBacklog):
		status = http.StatusTooManyRequests
		s.om.backpressure.Inc()
	case errors.Is(err, ErrDraining), errors.Is(err, ErrInjected):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrKeyAcknowledged):
		status = http.StatusConflict
	}
	env := ErrorResponse{Error: err.Error()}
	switch {
	case errors.Is(err, ErrShardFailed):
		env.Code = CodeShardFailed
	case errors.Is(err, ErrKeyAcknowledged):
		env.Code = CodeKeyAcknowledged
	}
	s.om.errorsTotal.Inc()
	s.opts.Log.Debugf("serve: %s %s -> %d: %v", r.Method, r.URL.Path, status, err)
	return status, env
}

// handleEvents is the events route: flight-recorder tracing and the
// HTTP-layer chaos points around the one pipeline both encodings share
// (events). It counts requests and errors itself, as wrap does for the
// other routes, because the trace record must observe the final status
// and every injected fault.
//
// An injected 500 fires before the pipeline: nothing was processed, so a
// retry is always safe. The reset point is drawn once after it, for
// every request that passed the 500 point, error or not: the batch WAS
// processed, and only the idempotency key makes the client's retry safe.
// The reply is whole before the draw, so a reset drops it without
// writing a byte.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.om.requestsTotal.Inc()
	transport := flight.TransportJSON
	if mediaType(r.Header.Get("Content-Type")) == ContentTypeWire {
		transport = flight.TransportWire
	}
	buf := wireBufs.Get().(*wireBuf)
	defer wireBufs.Put(buf)
	rec := s.opts.Flight.Begin(&buf.rec, transport)
	rec.SetID(r.Header.Get("X-Request-ID"))
	if id := rec.ID(); id != "" {
		w.Header().Set("X-Request-ID", id)
	}
	if s.opts.Fault.ServerError("http.error") {
		rec.MarkFault(flight.FaultError)
		s.om.errorsTotal.Inc()
		writeJSON(w, http.StatusInternalServerError,
			ErrorResponse{Error: "serve: injected fault: internal error"})
		s.opts.Flight.Finish(rec, http.StatusInternalServerError)
		return
	}

	status := http.StatusOK
	ctype, reply, err := s.events(r, buf, rec)
	if err != nil {
		if errors.Is(err, ErrInjected) {
			rec.MarkFault(flight.FaultDrop)
		}
		var env ErrorResponse
		status, env = s.failure(r, err)
		ctype, reply = "application/json", jsonBody(env)
	}
	if s.opts.Fault.Reset("http.reset") {
		rec.MarkFault(flight.FaultReset)
		s.opts.Flight.Finish(rec, status)
		//predlint:ignore panicfree http.ErrAbortHandler is net/http's sanctioned abort
		panic(http.ErrAbortHandler)
	}
	writeBody(w, status, ctype, reply)
	s.opts.Flight.Finish(rec, status)
}

// writeBody writes a whole response: its type and length, then body.
func writeBody(w http.ResponseWriter, status int, ctype string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	writeBody(w, status, "application/json", jsonBody(v))
}

// jsonBody encodes a response document, newline-terminated as
// json.Encoder writes one. The API's documents always encode.
func jsonBody(v interface{}) []byte {
	data, _ := json.Marshal(v)
	return append(data, '\n')
}

// readBody reads a request body of at most limit bytes into dst's
// storage, which it grows as needed, and returns what it read.
func readBody(dst []byte, r *http.Request, limit int64) ([]byte, error) {
	body, err := ReadRequest(dst, r, limit)
	if err != nil {
		return body, httpErr(http.StatusRequestEntityTooLarge, fmt.Errorf("serve: reading body: %w", err))
	}
	return body, nil
}

// ReadRequest reads r's body, at most limit bytes, into dst's storage
// and returns it. The sender's declared length is trusted only up to
// maxDeclaredRequest, so a connection that declares a large body and
// sends none holds no more than that; a longer body grows its buffer as
// its bytes arrive.
func ReadRequest(dst []byte, r *http.Request, limit int64) ([]byte, error) {
	return ReadBody(dst, http.MaxBytesReader(nil, r.Body, limit), r.ContentLength, min(limit, maxDeclaredRequest))
}

// maxDeclaredRequest caps what a request's declared length alone can
// make ReadRequest reserve.
const maxDeclaredRequest = 64 << 10

// maxDeclaredBody caps what a declared body length alone can make
// ReadBody reserve: a longer body grows its buffer as its bytes arrive.
const maxDeclaredBody = 4 << 20

// ReadBody reads all of rd into dst's storage and returns it. The buffer
// is sized once from size, the body's declared length (negative when it
// has none), a byte over so that the read which meets EOF needs no
// second buffer; a declared size is trusted up to most bytes (and
// maxDeclaredBody), and past that, or without one, the buffer grows as
// the bytes arrive. On error it returns what it read. Bounding the body
// itself is the caller's.
func ReadBody(dst []byte, rd io.Reader, size, most int64) ([]byte, error) {
	b := dst[:0]
	if size >= 0 {
		b = slices.Grow(b, int(min(size, most, maxDeclaredBody)+1))
	} else if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		}
	}
}

// handleCreateSession creates a session under the path's id for PUT
// /v1/sessions/{id} (409 if it is taken), or under a minted "sN" id for
// POST /v1/sessions.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(nil, r, MaxBodyBytes)
	if err != nil {
		return err
	}
	var req CreateSessionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return httpErr(http.StatusBadRequest, fmt.Errorf("serve: decoding session request: %w", err))
	}
	cfg, err := req.toSessionConfig()
	if err != nil {
		return httpErr(http.StatusBadRequest, err)
	}
	cfg.Fault = s.opts.Fault
	cfg.Record = s.opts.Record
	id := r.PathValue("id")
	sess, err := s.addSession(id, func() (*Session, error) { return NewSession(id, cfg, s.om) })
	if err != nil {
		return err
	}
	s.opts.Log.Infof("serve: session %s created: %s on %d nodes",
		sess.ID, sess.cfg.Scheme.FullString(), sess.cfg.Machine.Nodes)
	writeJSON(w, http.StatusCreated, sessionResponse(sess))
	return nil
}

func sessionResponse(sess *Session) CreateSessionResponse {
	cfg := sess.Config()
	return CreateSessionResponse{
		ID:         sess.ID,
		Scheme:     cfg.Scheme.FullString(),
		Nodes:      cfg.Machine.Nodes,
		LineBytes:  cfg.Machine.LineBytes,
		Shards:     cfg.Shards,
		BatchSize:  cfg.BatchSize,
		MaxPending: cfg.MaxPending,
	}
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) error {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	//predlint:ignore determinism keys are sorted before any output is produced
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sessions := make([]*Session, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()

	resp := SessionListResponse{Sessions: make([]CreateSessionResponse, len(sessions))}
	for i, sess := range sessions {
		resp.Sessions[i] = sessionResponse(sess)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// session resolves the {id} path value, or 404s. It is the one lookup
// the events, stats and snapshot GET routes make, and it wakes a dormant
// session: a restored session is built on its first use.
func (s *Server) session(r *http.Request) (*Session, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return nil, httpErr(http.StatusNotFound, fmt.Errorf("serve: no session %q", id))
	}
	if testHookWake != nil {
		testHookWake(id)
	}
	if err := sess.wake(); err != nil {
		return nil, err
	}
	return sess, nil
}

// handleDebugRequests serves a destructive capture of the flight
// recorder's sampled-request ring: entries ordered by finish sequence,
// drained as they are read.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, s.opts.Flight.Capture(flight.KindRequests))
	return nil
}

// handleDebugSlow serves (and drains) the slow-log: requests that erred,
// carried an injected fault, or crossed the slow threshold.
func (s *Server) handleDebugSlow(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, s.opts.Flight.Capture(flight.KindSlow))
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	st := sess.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		ID:           sess.ID,
		Scheme:       sess.cfg.Scheme.FullString(),
		Events:       st.Events,
		TP:           st.Confusion.TP,
		FP:           st.Confusion.FP,
		TN:           st.Confusion.TN,
		FN:           st.Confusion.FN,
		Prevalence:   st.Confusion.Prevalence(),
		Sensitivity:  st.Confusion.Sensitivity(),
		PVP:          st.Confusion.PVP(),
		TableEntries: st.TableEntries,

		IdempotencyKeys:       st.IdemKeys,
		IdempotencyReplyBytes: st.IdemReplyBytes,
	})
	return nil
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	// Look up and unlink under one lock: a delete removes only the session
	// it found, never a successor added under the same id meanwhile.
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	active := len(s.sessions)
	s.mu.Unlock()
	if sess == nil {
		return httpErr(http.StatusNotFound, fmt.Errorf("serve: no session %q", id))
	}
	if testHookDelete != nil {
		testHookDelete(id)
	}
	closeErr := sess.Close()
	s.om.sessionsActive.Set(float64(active))
	if closeErr != nil {
		// The session is gone either way, but a kernel panic during its
		// life must reach the caller, not vanish in the drain.
		return closeErr
	}
	s.opts.Log.Infof("serve: session %s drained and removed (%d events)", sess.ID, sess.Stats().Events)
	writeJSON(w, http.StatusOK, map[string]string{"id": sess.ID, "status": "drained"})
	return nil
}

// snapBufs recycles the buffers snapshots are written into and read
// from: each keeps the largest snapshot it has carried, up to
// maxPooledSnapshot bytes.
var snapBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

const maxPooledSnapshot = 4 << 20

// putSnapBuf returns buf to the pool holding b, the storage last used
// through it, unless b has outgrown the pool.
func putSnapBuf(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledSnapshot {
		*buf = b[:0]
		snapBufs.Put(buf)
	}
}

// Test hooks, nil outside tests. testHookBuild runs while addSession
// builds a session, outside the server lock; testHookDelete runs after a
// DELETE has unlinked its session and before it drains it; testHookWake
// runs after a request has looked its session up and before it wakes it.
var testHookBuild, testHookDelete, testHookWake func(id string)

// handleSnapshotGet writes the session's full state, under its table
// lock, in the canonical snapshot wire form into a recycled buffer.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	buf := snapBufs.Get().(*[]byte)
	data, err := sess.AppendSnapshot((*buf)[:0])
	if err != nil {
		snapBufs.Put(buf)
		return err
	}
	writeBody(w, http.StatusOK, "application/octet-stream", data)
	putSnapBuf(buf, data)
	s.opts.Log.Infof("serve: session %s snapshot: %d bytes", sess.ID, len(data))
	return nil
}

// handleSnapshotPut restores a snapshot into a NEW session named by the
// path id (409 if it exists). Tuning comes from the snapshot; a ?shards=N
// query is range-checked and otherwise ignored.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	// The body is recycled once the restore returns: the session keeps
	// its own copy.
	buf := snapBufs.Get().(*[]byte)
	body, err := readBody((*buf)[:0], r, MaxSnapshotBytes)
	defer putSnapBuf(buf, body)
	if err != nil {
		return err
	}
	var shards *int
	if sv := r.URL.Query().Get("shards"); sv != "" {
		n, err := strconv.Atoi(sv)
		if err != nil {
			return httpErr(http.StatusBadRequest, fmt.Errorf("serve: shards query %q: %w", sv, err))
		}
		shards = &n
	}

	sess, err := s.RestoreSnapshot(id, body, shards)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, sessionResponse(sess))
	return nil
}

// RestoreSnapshot registers a NEW session id restored from data, a
// COHSNAP1 snapshot; shards, when non-nil, is range-checked in place of
// the snapshot's shard count, which is otherwise ignored. It is the
// programmatic face of PUT
// /v1/sessions/{id}/snapshot — the CLI's -restore flag boots sessions
// through it before the listener opens.
//
// The snapshot is checked whole, as a build from it would check it,
// but the session stays dormant: it keeps a copy of data, its config
// and its tallies, and no table, until a request to it
// through the server builds it (Server.session). Until then its methods
// must not be called, but for Config, Stats and Close; Close drops the
// bytes unbuilt.
func (s *Server) RestoreSnapshot(id string, data []byte, shards *int) (*Session, error) {
	snap, err := eval.DecodeSnapshot(data)
	if err != nil {
		return nil, httpErr(http.StatusBadRequest, err)
	}
	sess, err := s.addSession(id, func() (*Session, error) {
		return newDormantSession(id, data, snap, shards, s.opts.Fault, s.opts.Record, s.om)
	})
	if err != nil {
		return nil, err
	}
	s.om.restores.Inc()
	s.opts.Log.Infof("serve: session %s restored dormant: %d events, %d bytes",
		id, snap.Events, len(data))
	return sess, nil
}

// addSession is the one way a session joins the server: create and
// restore both come through it. It admits the id, builds the session
// with build outside the server lock (which every request's session
// lookup takes, so a build stalls no other session), then admits again
// and inserts; a session that loses at insert is closed. An empty id is
// minted ("sN", skipping ids already taken) at insert, so a minted id
// never conflicts.
func (s *Server) addSession(id string, build func() (*Session, error)) (*Session, error) {
	s.mu.Lock()
	err := s.admitLocked(id)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if testHookBuild != nil {
		testHookBuild(id)
	}
	sess, err := build()
	if err != nil {
		return nil, httpErr(http.StatusBadRequest, err)
	}

	s.mu.Lock()
	if err := s.admitLocked(id); err != nil {
		s.mu.Unlock()
		_ = sess.Close() // never posted to: nothing to surface
		return nil, err
	}
	for id == "" {
		s.nextID++
		if minted := fmt.Sprintf("s%d", s.nextID); s.sessions[minted] == nil {
			id = minted
		}
	}
	sess.ID = id
	s.sessions[id] = sess
	active := len(s.sessions)
	s.mu.Unlock()

	s.om.sessionsTotal.Inc()
	s.om.sessionsActive.Set(float64(active))
	if s.opts.Record != nil {
		s.opts.Record.RecordSession(id, sess.cfg.Scheme.FullString(),
			sess.cfg.Machine.Nodes, sess.cfg.Machine.LineBytes, sess.cfg.Shards)
	}
	return sess, nil
}

// admitLocked reports why a session cannot be added under id now, if it
// cannot. The caller holds s.mu.
func (s *Server) admitLocked(id string) error {
	switch {
	case s.draining:
		return ErrDraining
	case s.sessions[id] != nil:
		return httpErr(http.StatusConflict, fmt.Errorf("serve: session %q already exists", id))
	case len(s.sessions) >= MaxSessions:
		return httpErr(http.StatusTooManyRequests,
			fmt.Errorf("serve: session limit %d reached", MaxSessions))
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	s.mu.Lock()
	draining := s.draining
	active := len(s.sessions)
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]interface{}{"status": state, "sessions": active})
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	return WriteMetrics(w, r, s.opts.Registry)
}

// WriteMetrics answers GET /metrics from reg: Prometheus text, or the
// obs.Snapshot JSON for a request that accepts application/json.
// predserve and predroute both serve their /metrics through it.
func WriteMetrics(w http.ResponseWriter, r *http.Request, reg *obs.Registry) error {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, reg.Snapshot())
		return nil
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return reg.WritePrometheus(w)
}

// Shutdown drains the server: new sessions and new events are refused,
// every stream is closed, every live session drains (in-flight batches
// finish, statistics are published), and the session registry empties.
// The HTTP listener itself is the caller's to close (http.Server.Shutdown);
// call this after it. Hijacked streams outlive that, so Shutdown closes
// them before it drains: a frame in flight fails at once, and nothing
// answers on a stream afterwards. The returned error joins any kernel
// panics the drained sessions were carrying — a SIGTERM drain must not
// swallow them.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	s.draining = true
	for c := range s.streams {
		_ = c.Close() // its goroutine sees the close and ends the stream
	}
	sessions := make([]*Session, 0, len(s.sessions))
	//predlint:ignore determinism drain order is immaterial: each Close only waits out its own posts
	for id, sess := range s.sessions {
		sessions = append(sessions, sess)
		delete(s.sessions, id)
	}
	s.mu.Unlock()

	var errs []error
	for _, sess := range sessions {
		if err := sess.Close(); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", sess.ID, err))
		}
	}
	s.om.sessionsActive.Set(0)
	s.opts.Log.Infof("serve: drained %d sessions", len(sessions))
	return errors.Join(errs...)
}
