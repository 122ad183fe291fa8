package eval

import (
	"fmt"
	"math"

	"cohpredict/internal/codec"
	"cohpredict/internal/core"
	"cohpredict/internal/metrics"
)

// Engine checkpoint/restore. A Snapshot captures everything an engine's
// future behaviour depends on — scheme, machine, predictor-table entry
// states, and the accumulated confusion tallies — so a killed process can
// resume mid-trace and produce byte-identical predictions and stats from
// that point on (the serving layer's kill/restore path).
//
// The wire form, COHSNAP1, is an 8-byte magic, then canonical uvarints
// only (internal/codec), with table entries sorted by key and
// delta-coded, then the length-prefixed Extra section. Two properties the
// chaos tests and the fuzz target rely on:
//
//   - canonical: Encode is a pure function of the snapshot value, and
//     Decode rejects any non-minimal or non-sorted form, so
//     Encode(Decode(b)) == b for every accepted b;
//   - total: Decode never panics, whatever the input.

// snapMagic identifies the snapshot wire format (and its version).
const snapMagic = "COHSNAP1"

// maxSnapExtra bounds the opaque Extra section.
const maxSnapExtra = 1 << 24

// Snapshot is the checkpointed state of one Engine, plus an opaque Extra
// section for the layer above (internal/serve stores session tuning and
// idempotency state there).
type Snapshot struct {
	Scheme  core.Scheme
	Machine core.Machine
	Events  uint64
	Conf    metrics.Confusion
	Entries []core.EntryState
	Extra   []byte
}

// Snapshot captures the engine's current state. The engine must be
// quiescent (no concurrent Step).
func (e *Engine) Snapshot() *Snapshot {
	return &Snapshot{
		Scheme:  e.scheme,
		Machine: e.machine,
		Events:  e.events,
		Conf:    e.conf,
		Entries: core.ExportTable(e.table),
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
	if err := core.ImportTable(e.table, s.Entries); err != nil {
		return nil, err
	}
	e.events = s.Events
	e.conf = s.Conf
	return e, nil
}

// EncodeSnapshot serializes s into the canonical wire form.
func EncodeSnapshot(s *Snapshot) []byte {
	b := make([]byte, 0, 64+16*len(s.Entries)+len(s.Extra))
	b = append(b, snapMagic...)
	for _, v := range []uint64{
		uint64(s.Scheme.Fn), uint64(s.Scheme.Depth), uint64(s.Scheme.Update),
		boolWord(s.Scheme.Index.UsePID), uint64(s.Scheme.Index.PCBits),
		boolWord(s.Scheme.Index.UseDir), uint64(s.Scheme.Index.AddrBits),
		uint64(s.Machine.Nodes), uint64(s.Machine.LineBytes),
		s.Events,
		s.Conf.TP, s.Conf.FP, s.Conf.TN, s.Conf.FN,
	} {
		b = codec.AppendUvarint(b, v)
	}
	b = codec.AppendUvarint(b, uint64(len(s.Entries)))
	prev := uint64(0)
	for i := range s.Entries {
		e := &s.Entries[i]
		if i == 0 {
			b = codec.AppendUvarint(b, e.Key)
		} else {
			b = codec.AppendUvarint(b, e.Key-prev) // >0 for sorted, deduped keys
		}
		prev = e.Key
		b = codec.AppendUvarint(b, uint64(len(e.Words)))
		for _, w := range e.Words {
			b = codec.AppendUvarint(b, w)
		}
	}
	b = codec.AppendUvarint(b, uint64(len(s.Extra)))
	b = append(b, s.Extra...)
	return b
}

// DecodeSnapshot parses the canonical wire form. It validates structure,
// scheme, machine, and tally consistency; per-entry word validation
// happens in NewEngineFromSnapshot (via core.ImportTable), which knows
// the table shape.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("eval: snapshot magic missing")
	}
	r := codec.NewReader(data[len(snapMagic):])
	s := &Snapshot{}
	s.Scheme.Fn = core.Function(r.Uvarint())
	s.Scheme.Depth = int(r.Uvarint())
	s.Scheme.Update = core.UpdateMode(r.Uvarint())
	s.Scheme.Index.UsePID = r.Bool()
	s.Scheme.Index.PCBits = int(r.Uvarint())
	s.Scheme.Index.UseDir = r.Bool()
	s.Scheme.Index.AddrBits = int(r.Uvarint())
	s.Machine.Nodes = int(r.Uvarint())
	s.Machine.LineBytes = int(r.Uvarint())
	s.Events = r.Uvarint()
	s.Conf.TP = r.Uvarint()
	s.Conf.FP = r.Uvarint()
	s.Conf.TN = r.Uvarint()
	s.Conf.FN = r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("eval: snapshot header: %w", err)
	}
	if err := s.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("eval: snapshot scheme: %w", err)
	}
	if err := s.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("eval: snapshot machine: %w", err)
	}
	// AddBitmaps scores exactly Nodes decisions per event, so the tallies
	// must account for Events*Nodes decisions in total.
	nodes := uint64(s.Machine.Nodes)
	if s.Events > math.MaxUint64/nodes {
		return nil, fmt.Errorf("eval: snapshot event count %d overflows the decision total", s.Events)
	}
	if s.Conf.TP+s.Conf.FP+s.Conf.TN+s.Conf.FN != s.Events*nodes {
		return nil, fmt.Errorf("eval: snapshot tallies do not sum to events*nodes")
	}

	// Every entry needs at least 2 bytes (key + word count).
	n := r.Count(math.MaxInt, 2)
	s.Entries = make([]core.EntryState, 0, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		key := r.Uvarint() // the first key, then deltas
		if i > 0 && r.Err() == nil {
			if key == 0 {
				return nil, fmt.Errorf("eval: snapshot keys are not strictly increasing")
			}
			if prev > math.MaxUint64-key {
				return nil, fmt.Errorf("eval: snapshot key delta overflows")
			}
			key += prev
		}
		words := make([]uint64, r.Count(math.MaxInt, 1))
		for j := range words {
			words[j] = r.Uvarint()
		}
		if r.Err() != nil {
			break
		}
		s.Entries = append(s.Entries, core.EntryState{Key: key, Words: words})
		prev = key
	}
	if extra := r.Bytes(maxSnapExtra); len(extra) > 0 {
		s.Extra = append([]byte(nil), extra...)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("eval: snapshot: %w", err)
	}
	return s, nil
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
