package eval

import (
	"fmt"

	"cohpredict/internal/codec"
	"cohpredict/internal/core"
)

// The offline engine's snapshot round trip: the tests' reference for
// COHSNAP1 beside the serving layer's own (AppendSnapshot from shard
// tables, DecodeSnapshot, Restore into them).

// events returns the number of events the engine has scored: each one
// adds Nodes decisions to its tallies, which a snapshot's header must
// also satisfy.
func (e *Engine) events() uint64 { return e.conf.Decisions() / uint64(e.machine.Nodes) }

// Snapshot captures the engine's current state. The engine must be
// quiescent (no concurrent Step).
func (e *Engine) Snapshot() *Snapshot {
	return &Snapshot{
		Scheme:  e.scheme,
		Machine: e.machine,
		Events:  e.events(),
		Conf:    e.conf,
		entries: core.AppendEntries(nil, e.table),
	}
}

// NewEngineFromSnapshot rebuilds an engine that behaves exactly as the
// snapshotted one would: same table contents, same tallies.
func NewEngineFromSnapshot(s *Snapshot) (*Engine, error) {
	if err := s.Scheme.ValidateOn(s.Machine); err != nil {
		return nil, err
	}
	if err := s.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("eval: snapshot machine: %w", err)
	}
	e := NewEngine(s.Scheme, s.Machine)
	if err := s.Restore([]*core.FlatTable{e.table}, nil); err != nil {
		return nil, err
	}
	e.conf = s.Conf
	return e, nil
}

// EncodeSnapshot serializes s into the canonical wire form.
func EncodeSnapshot(s *Snapshot) []byte {
	b := make([]byte, 0, 64+len(s.entries)+len(s.Extra))
	b = appendHeader(b, s)
	if s.entries == nil {
		b = codec.AppendUvarint(b, 0)
	}
	b = append(b, s.entries...)
	b = codec.AppendUvarint(b, uint64(len(s.Extra)))
	return append(b, s.Extra...)
}
