// Package trace defines the coherence-event records that drive predictor
// evaluation, and a compact binary codec so traces generated once by the
// machine simulator can be replayed many times over the predictor design
// space (the paper's trace-driven methodology, §5.1).
//
// One Event is emitted each time a store obtains exclusive ownership of a
// cache block: the previous write-epoch of the block closes, its true
// readers are invalidated, and a new epoch owned by the storing node opens.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cohpredict/internal/bitmap"
)

// Event is a single prediction event (an exclusive-ownership transition).
type Event struct {
	// PID is the node performing the store (0-based).
	PID int
	// PC identifies the static store instruction performing the write.
	PC uint64
	// Dir is the home node of the block (directory that owns its entry).
	Dir int
	// Addr is the block-aligned address of the cache line being written.
	Addr uint64

	// InvReaders is the set of true readers invalidated by this store:
	// the nodes (other than the previous writer epoch's owner identity —
	// ownership does not imply reading) that loaded the block during the
	// epoch now being closed. This is the feedback the update mechanisms
	// distribute (access-bit semantics: only nodes that actually read).
	InvReaders bitmap.Bitmap

	// HasPrev reports whether the closed epoch had a writer; PrevPID and
	// PrevPC identify that writer's store. Forwarded update trains the
	// previous writer's predictor entry with InvReaders.
	HasPrev bool
	PrevPID int
	PrevPC  uint64

	// FutureReaders is the ground truth for this prediction: the nodes
	// other than PID that load the block during the epoch opened by this
	// store, resolved when that epoch later closes (or at end of trace).
	FutureReaders bitmap.Bitmap
}

// Trace is an in-memory event sequence plus the machine size it was
// generated for.
type Trace struct {
	Nodes  int
	Events []Event
}

const (
	magic   = "COHPRED1"
	hasPrev = 1 << 0
)

// Write serialises the trace. The format is a magic header, the node count,
// the event count, then per-event varint-encoded fields.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(t.Nodes)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Events))); err != nil {
		return err
	}
	for i := range t.Events {
		e := &t.Events[i]
		var flags uint64
		if e.HasPrev {
			flags |= hasPrev
		}
		fields := []uint64{
			flags, uint64(e.PID), e.PC, uint64(e.Dir), e.Addr,
			uint64(e.InvReaders), uint64(e.FutureReaders),
		}
		if e.HasPrev {
			fields = append(fields, uint64(e.PrevPID), e.PrevPC)
		}
		for _, f := range fields {
			if err := putUvarint(f); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserialises a trace written by Write. It rejects node ids and
// reader bits outside the trace's machine, as the COHWIRE1 and COHTRACE1
// decoders do.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic header")
	}
	nodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading node count: %w", err)
	}
	if nodes == 0 || nodes > bitmap.MaxNodes {
		return nil, fmt.Errorf("trace: node count %d out of range", nodes)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading event count: %w", err)
	}
	t := &Trace{Nodes: int(nodes)}
	full := bitmap.Full(int(nodes))
	if count > 0 {
		// Clamp the initial allocation so a corrupt count cannot
		// trigger a huge up-front allocation; append grows as needed.
		capHint := count
		if capHint > 1<<20 {
			capHint = 1 << 20
		}
		t.Events = make([]Event, 0, capHint)
	}
	for i := uint64(0); i < count; i++ {
		var e Event
		flags, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		fields := make([]uint64, 6)
		for j := range fields {
			if fields[j], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("trace: event %d: %w", i, err)
			}
		}
		if fields[0] >= nodes || fields[2] >= nodes {
			return nil, fmt.Errorf("trace: event %d: node id out of range", i)
		}
		e.PID = int(fields[0])
		e.PC = fields[1]
		e.Dir = int(fields[2])
		e.Addr = fields[3]
		e.InvReaders = bitmap.Bitmap(fields[4])
		e.FutureReaders = bitmap.Bitmap(fields[5])
		if e.InvReaders&^full != 0 || e.FutureReaders&^full != 0 {
			return nil, fmt.Errorf("trace: event %d: reader bitmap has bits beyond node %d", i, nodes-1)
		}
		if flags&hasPrev != 0 {
			e.HasPrev = true
			pid, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: event %d: %w", i, err)
			}
			pc, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: event %d: %w", i, err)
			}
			if pid >= nodes {
				return nil, fmt.Errorf("trace: event %d: prev node id out of range", i)
			}
			e.PrevPID = int(pid)
			e.PrevPC = pc
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}
