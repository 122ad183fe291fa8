package serve

import (
	"cohpredict/internal/eval"
	"cohpredict/internal/trace"
)

// ReencodeSessionExtra decodes a snapshot's session Extra section and
// re-encodes what was accepted, for FuzzDecodeSessionExtra.
func ReencodeSessionExtra(data []byte) ([]byte, error) {
	x, err := decodeSessionExtra(data)
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
