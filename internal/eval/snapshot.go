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
// only (internal/codec): the header, the entry section that
// core.AppendEntries writes straight from the tables (entries sorted by
// key and delta-coded), then the length-prefixed Extra section. Two
// properties the chaos tests and the fuzz target rely on:
//
//   - canonical: AppendSnapshot is a pure function of the header and the
//     tables, and Decode with Restore rejects any non-minimal or
//     non-sorted form, so restored tables snapshot back to the bytes they
//     came from;
//   - total: neither Decode nor Restore panics, whatever the input.

// snapMagic identifies the snapshot wire format (and its version).
const snapMagic = "COHSNAP1"

// maxSnapExtra bounds the opaque Extra section.
const maxSnapExtra = 1 << 24

// Snapshot is the checkpointed state of one Engine, plus an opaque Extra
// section for the layer above (internal/serve stores session tuning and
// idempotency state there). Its table entries stay in their wire form:
// AppendSnapshot writes them straight from the tables, and a decoded
// snapshot keeps the section it was read from until Restore imports it.
type Snapshot struct {
	Scheme  core.Scheme
	Machine core.Machine
	Events  uint64
	Conf    metrics.Confusion
	Extra   []byte

	entries []byte // the entry section; nil means no entries
}

// Restore imports the snapshot's entries into ts, empty tables of its
// scheme on its machine, each key into ts[route(key)] (route may be nil
// for one table): one table, or the disjoint partitions a sharded
// session keeps. It checks every entry as it reads it (core.ImportEntries);
// on error the tables are partly filled and must be discarded.
func (s *Snapshot) Restore(ts []*core.FlatTable, route func(key uint64) int) error {
	if s.entries == nil {
		return nil
	}
	if err := core.ImportEntries(s.entries, ts, route); err != nil {
		return fmt.Errorf("eval: snapshot %w", err)
	}
	return nil
}

// Check checks the snapshot's entries exactly as Restore checks them
// on their way into tables of its scheme on its machine, without a table
// (core.CheckEntries), and returns the error Restore would.
func (s *Snapshot) Check() error {
	if s.entries == nil {
		return nil
	}
	if err := core.CheckEntries(s.entries, s.Scheme, s.Machine); err != nil {
		return fmt.Errorf("eval: snapshot %w", err)
	}
	return nil
}

// AppendSnapshot appends to dst the wire form of a snapshot with s's
// header whose entries are those of ts, written straight from their
// slots (core.AppendEntries merges disjoint partitions in key order), up
// to and including the length of an Extra section of extraLen bytes. The
// caller appends those bytes itself; s.Extra is not read. That lets the
// serving layer write its section in place instead of building and
// copying it.
func AppendSnapshot(dst []byte, s *Snapshot, extraLen int, ts ...*core.FlatTable) []byte {
	dst = core.AppendEntries(appendHeader(dst, s), ts...)
	return codec.AppendUvarint(dst, uint64(extraLen))
}

// appendHeader appends the magic and the header words.
func appendHeader(b []byte, s *Snapshot) []byte {
	b = append(b, snapMagic...)
	for _, v := range [...]uint64{
		uint64(s.Scheme.Fn), uint64(s.Scheme.Depth), uint64(s.Scheme.Update),
		boolWord(s.Scheme.Index.UsePID), uint64(s.Scheme.Index.PCBits),
		boolWord(s.Scheme.Index.UseDir), uint64(s.Scheme.Index.AddrBits),
		uint64(s.Machine.Nodes), uint64(s.Machine.LineBytes),
		s.Events,
		s.Conf.TP, s.Conf.FP, s.Conf.TN, s.Conf.FN,
	} {
		b = codec.AppendUvarint(b, v)
	}
	return b
}

// DecodeSnapshot parses the canonical wire form. It validates the
// header — scheme, machine, and tally consistency — and the structure of
// the entry and Extra sections; each entry is checked against the table
// shape when Restore imports it (or Check reads it). The snapshot
// aliases data, which must not change while it is in use.
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

	rest := r.Rest()
	n, err := core.EntriesLen(rest)
	if err != nil {
		return nil, fmt.Errorf("eval: snapshot %w", err)
	}
	s.entries = rest[:n:n]
	r = codec.NewReader(rest[n:])
	if extra := r.Bytes(maxSnapExtra); len(extra) > 0 {
		s.Extra = extra
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
