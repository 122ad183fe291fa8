package eval

import (
	"encoding/binary"
	"fmt"
	"math"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/metrics"
)

// Engine checkpoint/restore. A Snapshot captures everything an engine's
// future behaviour depends on — scheme, machine, predictor-table entry
// states, and the accumulated confusion tallies — so a killed process can
// resume mid-trace and produce byte-identical predictions and stats from
// that point on (the serving layer's kill/restore path).
//
// The wire form is a canonical binary encoding: an 8-byte magic, then
// uvarints only, with table entries sorted by key and delta-coded. Two
// properties the chaos tests and the fuzz target rely on:
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
	if err := validateSnapMachine(s.Machine); err != nil {
		return nil, err
	}
	e := NewEngine(s.Scheme, s.Machine)
	if err := core.ImportTable(e.table, s.Entries); err != nil {
		return nil, err
	}
	e.events = s.Events
	e.conf = s.Conf
	return e, nil
}

func validateSnapMachine(m core.Machine) error {
	if m.Nodes <= 0 || m.Nodes > bitmap.MaxNodes {
		return fmt.Errorf("eval: snapshot node count %d out of range [1,%d]", m.Nodes, bitmap.MaxNodes)
	}
	if m.LineBytes <= 0 || m.LineBytes&(m.LineBytes-1) != 0 || m.LineBytes > 1<<20 {
		return fmt.Errorf("eval: snapshot line size %d is not a power of two in [1,%d]", m.LineBytes, 1<<20)
	}
	return nil
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
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Entries)))
	prev := uint64(0)
	for i := range s.Entries {
		e := &s.Entries[i]
		if i == 0 {
			b = binary.AppendUvarint(b, e.Key)
		} else {
			b = binary.AppendUvarint(b, e.Key-prev) // >0 for sorted, deduped keys
		}
		prev = e.Key
		b = binary.AppendUvarint(b, uint64(len(e.Words)))
		for _, w := range e.Words {
			b = binary.AppendUvarint(b, w)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Extra)))
	b = append(b, s.Extra...)
	return b
}

// snapReader decodes canonical uvarints, rejecting non-minimal forms so
// every accepted input re-encodes byte-identically.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n, ok := Uvarint(r.b)
	switch {
	case n == 0:
		r.err = fmt.Errorf("eval: snapshot truncated reading %s", what)
		return 0
	case !ok:
		r.err = fmt.Errorf("eval: snapshot has a non-minimal varint for %s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// boolWord reads a canonical boolean: only 0 and 1 are accepted, since
// any other value would re-encode differently than it was read.
func (r *snapReader) boolWord(what string) bool {
	v := r.uvarint(what)
	if r.err == nil && v > 1 {
		r.err = fmt.Errorf("eval: snapshot has a non-boolean %s word %d", what, v)
	}
	return v == 1
}

// DecodeSnapshot parses the canonical wire form. It validates structure,
// scheme, machine, and tally consistency; per-entry word validation
// happens in NewEngineFromSnapshot (via core.ImportTable), which knows
// the table shape.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("eval: snapshot magic missing")
	}
	r := &snapReader{b: data[len(snapMagic):]}
	s := &Snapshot{}
	s.Scheme.Fn = core.Function(r.uvarint("function"))
	s.Scheme.Depth = int(r.uvarint("depth"))
	s.Scheme.Update = core.UpdateMode(r.uvarint("update mode"))
	s.Scheme.Index.UsePID = r.boolWord("use_pid")
	s.Scheme.Index.PCBits = int(r.uvarint("pc_bits"))
	s.Scheme.Index.UseDir = r.boolWord("use_dir")
	s.Scheme.Index.AddrBits = int(r.uvarint("addr_bits"))
	s.Machine.Nodes = int(r.uvarint("nodes"))
	s.Machine.LineBytes = int(r.uvarint("line_bytes"))
	s.Events = r.uvarint("events")
	s.Conf.TP = r.uvarint("tp")
	s.Conf.FP = r.uvarint("fp")
	s.Conf.TN = r.uvarint("tn")
	s.Conf.FN = r.uvarint("fn")
	if r.err != nil {
		return nil, r.err
	}
	if err := s.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("eval: snapshot scheme: %w", err)
	}
	if err := validateSnapMachine(s.Machine); err != nil {
		return nil, err
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

	n := r.uvarint("entry count")
	if r.err != nil {
		return nil, r.err
	}
	// Every entry needs at least 2 bytes (key + word count), so the count
	// bounds itself against the remaining input before any allocation.
	if n > uint64(len(r.b))/2 {
		return nil, fmt.Errorf("eval: snapshot entry count %d exceeds input", n)
	}
	s.Entries = make([]core.EntryState, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var key uint64
		if i == 0 {
			key = r.uvarint("first key")
		} else {
			d := r.uvarint("key delta")
			if r.err == nil && d == 0 {
				return nil, fmt.Errorf("eval: snapshot keys are not strictly increasing")
			}
			if r.err == nil && prev > math.MaxUint64-d {
				return nil, fmt.Errorf("eval: snapshot key delta overflows")
			}
			key = prev + d
		}
		wc := r.uvarint("word count")
		if r.err != nil {
			return nil, r.err
		}
		if wc > uint64(len(r.b)) {
			return nil, fmt.Errorf("eval: snapshot word count %d exceeds input", wc)
		}
		words := make([]uint64, wc)
		for j := range words {
			words[j] = r.uvarint("entry word")
		}
		if r.err != nil {
			return nil, r.err
		}
		s.Entries = append(s.Entries, core.EntryState{Key: key, Words: words})
		prev = key
	}

	xn := r.uvarint("extra length")
	if r.err != nil {
		return nil, r.err
	}
	if xn > maxSnapExtra || xn > uint64(len(r.b)) {
		return nil, fmt.Errorf("eval: snapshot extra section of %d bytes exceeds input", xn)
	}
	if xn > 0 {
		s.Extra = append([]byte(nil), r.b[:xn]...)
		r.b = r.b[xn:]
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("eval: snapshot has %d trailing bytes", len(r.b))
	}
	return s, nil
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
