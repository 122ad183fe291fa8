// Package trace defines the coherence-event records that drive predictor
// evaluation, and the one binary encoding of an event sequence that every
// format carrying events shares: the event block. A COHWIRE1 batch
// (internal/serve), a COHTRACE1 request record (internal/traffic) and a
// COHPRED2 trace file (this package) all hold one, so traces generated
// once by the machine simulator can be replayed many times over the
// predictor design space (the paper's trace-driven methodology, §5.1),
// and the serving and recording layers move the same bytes.
//
// One Event is emitted each time a store obtains exclusive ownership of a
// cache block: the previous write-epoch of the block closes, its true
// readers are invalidated, and a new epoch owned by the storing node opens.
//
// The block and the trace file follow internal/codec's discipline:
//
//	file  := magic nodes:uvarint block
//	magic := "COHPRED2"                       (8 bytes)
//	block := count:uvarint event*count
//	event := pid pc dir addr inv_readers has_prev [prev_pid prev_pc] future_readers
//
// Every integer is a minimal-length uvarint, has_prev is a canonical
// boolean, the prev fields are present exactly when has_prev is 1, and a
// file has no trailing bytes, so Write(Read(b)) == b for every accepted b.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
)

// Event is a single prediction event (an exclusive-ownership transition).
// It is also the serving API's event: the JSON tags name its fields.
// The words come first and the node ids are bytes after them, so the
// record is 48 bytes: a node id is below bitmap.MaxNodes (64), and every
// decoder narrows one only after checking it against the machine.
type Event struct {
	// PC identifies the static store instruction performing the write.
	PC uint64 `json:"pc"`
	// Addr is the block-aligned address of the cache line being written.
	Addr uint64 `json:"addr"`

	// InvReaders is the set of true readers invalidated by this store:
	// the nodes (other than the previous writer epoch's owner identity —
	// ownership does not imply reading) that loaded the block during the
	// epoch now being closed. This is the feedback the update mechanisms
	// distribute (access-bit semantics: only nodes that actually read).
	InvReaders bitmap.Bitmap `json:"inv_readers"`

	// PrevPC identifies the closed epoch's writer's store (see HasPrev).
	PrevPC uint64 `json:"prev_pc,omitempty"`

	// FutureReaders is the ground truth for this prediction: the nodes
	// other than PID that load the block during the epoch opened by this
	// store, resolved when that epoch later closes (or at end of trace).
	FutureReaders bitmap.Bitmap `json:"future_readers"`

	// PID is the node performing the store (0-based).
	PID uint8 `json:"pid"`
	// Dir is the home node of the block (directory that owns its entry).
	Dir uint8 `json:"dir"`

	// HasPrev reports whether the closed epoch had a writer; PrevPID and
	// PrevPC identify that writer's store. Forwarded update trains the
	// previous writer's predictor entry with InvReaders.
	HasPrev bool  `json:"has_prev,omitempty"`
	PrevPID uint8 `json:"prev_pid,omitempty"`
}

// Trace is an in-memory event sequence plus the machine size it was
// generated for.
type Trace struct {
	Nodes  int
	Events []Event
}

// ErrRange reports an event field outside the machine it is decoded for:
// a node id at or beyond the node count, or a reader bitmap with bits
// beyond it.
var ErrRange = errors.New("trace: event field out of range for the machine")

// minEventBytes is the smallest encoded event (seven single-byte
// uvarints: pid pc dir addr inv_readers has_prev future_readers); a
// block's count is bounded against it before any allocation.
const minEventBytes = 7

// BlockLen returns the length of the event block for evs.
//
//predlint:hotpath
func BlockLen(evs []Event) int {
	n := codec.UvarintLen(uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		n += codec.UvarintLen(uint64(ev.PID)) + codec.UvarintLen(ev.PC) + codec.UvarintLen(uint64(ev.Dir)) +
			codec.UvarintLen(ev.Addr) + codec.UvarintLen(uint64(ev.InvReaders)) + 1 +
			codec.UvarintLen(uint64(ev.FutureReaders))
		if ev.HasPrev {
			n += codec.UvarintLen(uint64(ev.PrevPID)) + codec.UvarintLen(ev.PrevPC)
		}
	}
	return n
}

// PutBlock writes the event block for evs into b at index i and returns
// the index just past it. b must hold BlockLen(evs) bytes from i, so an
// encoder sizes its frame once and writes each field by index.
//
//predlint:hotpath
func PutBlock(b []byte, i int, evs []Event) int {
	i = codec.PutUvarint(b, i, uint64(len(evs)))
	for k := range evs {
		ev := &evs[k]
		i = codec.PutUvarint(b, i, uint64(ev.PID))
		i = codec.PutUvarint(b, i, ev.PC)
		i = codec.PutUvarint(b, i, uint64(ev.Dir))
		i = codec.PutUvarint(b, i, ev.Addr)
		i = codec.PutUvarint(b, i, uint64(ev.InvReaders))
		if ev.HasPrev {
			b[i] = 1
			i = codec.PutUvarint(b, i+1, uint64(ev.PrevPID))
			i = codec.PutUvarint(b, i, ev.PrevPC)
		} else {
			b[i] = 0
			i++
		}
		i = codec.PutUvarint(b, i, uint64(ev.FutureReaders))
	}
	return i
}

// AppendBlock appends the event block for evs to dst, growing it once.
//
//predlint:hotpath
func AppendBlock(dst []byte, evs []Event) []byte {
	i, n := len(dst), BlockLen(evs)
	dst = slices.Grow(dst, n)[:i+n]
	PutBlock(dst, i, evs)
	return dst
}

// DecodeBlock decodes the event block at the front of data, of at most
// limit events, for an n-node machine; the caller checks that nodes is in
// [1, bitmap.MaxNodes]. It appends the events to dst (pass a pooled slice
// at length 0 to decode without allocating once its capacity has warmed
// up) and returns the extended slice with the number of bytes the block
// took; on error it returns dst at its original length. It validates
// every node id and reader bitmap against the machine, never panics on
// any data, and accepts only the canonical form: PutBlock over the events
// reproduces data[:n] byte for byte.
//
// The decoder is one pass: the count is bounded against the input, dst
// grows once to it, and each field is read at a local index through
// codec.Uvarint, whose one-byte case inlines.
//
//predlint:hotpath
func DecodeBlock(data []byte, nodes int, limit uint64, dst []Event) ([]Event, int, error) {
	count, i, ok := codec.Uvarint(data)
	if !ok {
		return dst, 0, codec.UvarintErr(i)
	}
	if count > limit || count > uint64(len(data)-i)/minEventBytes {
		return dst, 0, codec.ErrCount
	}
	full, nn := uint64(bitmap.Full(nodes)), uint64(nodes)
	base := len(dst)
	dst = slices.Grow(dst, int(count))
	evs := dst[base : base+int(count)]
	for k := range evs {
		// Each field is read where it is used, so a field that fails to
		// decode wins over every check on the fields after it.
		pid, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		pc, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		dir, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		addr, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		inv, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		hasPrev, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		if hasPrev > 1 {
			return dst, 0, codec.ErrBool
		}
		var prevPID, prevPC uint64
		if hasPrev == 1 {
			if prevPID, n, ok = codec.Uvarint(data[i:]); !ok {
				return dst, 0, codec.UvarintErr(n)
			}
			i += n
			if prevPC, n, ok = codec.Uvarint(data[i:]); !ok {
				return dst, 0, codec.UvarintErr(n)
			}
			i += n
			if prevPID >= nn {
				return dst, 0, ErrRange
			}
		}
		future, n, ok := codec.Uvarint(data[i:])
		if !ok {
			return dst, 0, codec.UvarintErr(n)
		}
		i += n
		if pid >= nn || dir >= nn || inv&^full != 0 || future&^full != 0 {
			return dst, 0, ErrRange
		}
		// Each node id is below nodes ≤ 64 here, so its byte is exact.
		evs[k] = Event{
			PC: pc, Addr: addr, InvReaders: bitmap.Bitmap(inv), PrevPC: prevPC, FutureReaders: bitmap.Bitmap(future),
			PID: uint8(pid), Dir: uint8(dir), HasPrev: hasPrev == 1, PrevPID: uint8(prevPID),
		}
	}
	return dst[:base+len(evs)], i, nil
}

// magic identifies the trace file format (and its version).
const magic = "COHPRED2"

// Write serialises the trace: the magic, the node count, then the event
// block.
func (t *Trace) Write(w io.Writer) error {
	b := codec.AppendUvarint([]byte(magic), uint64(t.Nodes))
	_, err := w.Write(AppendBlock(b, t.Events))
	return err
}

// Read deserialises a trace written by Write. It accepts only the
// canonical form and rejects node ids and reader bits outside the trace's
// machine, as the COHWIRE1 and COHTRACE1 decoders do.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, errors.New("trace: not a COHPRED2 file (COHPRED1 files must be regenerated)")
	}
	nodes, i, ok := codec.Uvarint(data[len(magic):])
	if !ok {
		return nil, fmt.Errorf("trace: node count: %w", codec.UvarintErr(i))
	}
	if nodes == 0 || nodes > bitmap.MaxNodes {
		return nil, fmt.Errorf("trace: node count %d out of range", nodes)
	}
	i += len(magic)
	evs, n, err := DecodeBlock(data[i:], int(nodes), math.MaxUint64, nil)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if i+n != len(data) {
		return nil, fmt.Errorf("trace: %w", codec.ErrTrailing)
	}
	return &Trace{Nodes: int(nodes), Events: evs}, nil
}
