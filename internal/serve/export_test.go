package serve

import (
	"cohpredict/internal/bitmap"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/trace"
)

// DecodeWireBatch is DecodeWireBatchInto with a fresh destination, for
// tests and fuzz targets.
func DecodeWireBatch(data []byte, nodes int) ([]trace.Event, error) {
	evs, err := DecodeWireBatchInto(data, nodes, nil)
	if err != nil {
		return nil, err
	}
	if evs == nil {
		evs = []trace.Event{}
	}
	return evs, nil
}

// DecodeEvents is DecodeEventsInto with a fresh destination.
func DecodeEvents(data []byte, nodes int) ([]trace.Event, error) {
	evs, err := DecodeEventsInto(data, nodes, nil)
	if err != nil {
		return nil, err
	}
	if evs == nil {
		evs = []trace.Event{}
	}
	return evs, nil
}

// DecodeWireReply is DecodeWireReplyInto with a fresh destination.
func DecodeWireReply(data []byte) ([]bitmap.Bitmap, error) {
	preds, err := DecodeWireReplyInto(data, []bitmap.Bitmap(nil))
	if err != nil {
		return nil, err
	}
	if preds == nil {
		preds = []bitmap.Bitmap{}
	}
	return preds, nil
}

// ReencodeSessionExtra decodes a snapshot's session Extra section and
// re-encodes what was accepted, for FuzzDecodeSessionExtra.
func ReencodeSessionExtra(data []byte) ([]byte, error) {
	x, err := decodeSessionExtra(data, true)
	if err != nil {
		return nil, err
	}
	n, size := idemSize(x.order, x.idem)
	b := appendExtraHead(make([]byte, 0, maxExtraHead+size), x.tuning, x.flush, n)
	return appendIdem(b, x.order, x.idem), nil
}

// Snapshot is AppendSnapshot decoded, for tests that inspect a
// snapshot's header or Extra section or restore it in process.
func (s *Session) Snapshot() (*eval.Snapshot, error) {
	data, err := s.AppendSnapshot(nil)
	if err != nil {
		return nil, err
	}
	return eval.DecodeSnapshot(data)
}

// SetBuildHook installs fn as the hook a create or restore runs while it
// builds its session outside the server lock, and returns a func that
// removes it.
func SetBuildHook(fn func(id string)) func() {
	testHookBuild = fn
	return func() { testHookBuild = nil }
}

// SetDeleteHook installs fn as the hook a DELETE runs after it unlinks
// its session, and returns a func that removes it.
func SetDeleteHook(fn func(id string)) func() {
	testHookDelete = fn
	return func() { testHookDelete = nil }
}

// SetWakeHook installs fn as the hook a request runs after it looks its
// session up and before it wakes it, and returns a func that removes it.
func SetWakeHook(fn func(id string)) func() {
	testHookWake = fn
	return func() { testHookWake = nil }
}

// WireBuf is the binary handler's pooled per-request buffer set.
type WireBuf = wireBuf

// PostFrame is the session-level call the events route makes, with buf
// standing in for the buffers it takes from the pool.
func (s *Session) PostFrame(key string, evs []trace.Event, buf *WireBuf) ([]byte, error) {
	return s.postFrame(key, "", evs, buf, nil)
}

// Acknowledge is what an Idempotency-Ack header naming key does.
func (s *Session) Acknowledge(key string) { s.acknowledge(key) }

// SessionByID returns the live session registered under id, or nil.
func (s *Server) SessionByID(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// NewSessionFromSnapshot is the eager restore, the tests' reference for
// the dormant one: it checks snap in the same order and with the same
// errors, then builds the session at once.
func NewSessionFromSnapshot(id string, snap *eval.Snapshot, shards *int, flt *fault.Injector, rec EventRecorder, om *serveMetrics) (*Session, error) {
	cfg, err := restoredConfig(snap, shards, flt, rec)
	if err != nil {
		return nil, err
	}
	extra, err := decodeSessionExtra(snap.Extra, true)
	if err != nil {
		return nil, err
	}
	s := newSession(id, cfg, om)
	s.baseConf, s.baseEvents = snap.Conf, snap.Events
	if err := s.build(snap, extra); err != nil {
		return nil, err
	}
	return s, nil
}
