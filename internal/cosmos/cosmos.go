// Package cosmos implements a Cosmos-style coherence-message predictor in
// the spirit of Mukherjee & Hill ("Using Prediction to Accelerate Coherence
// Protocols", ISCA 1998) — the address-based ancestor the paper's related
// work opens with. The paper's footnote 5 declines to place Cosmos in its
// taxonomy "because they were predicting coherence messages, not sharing
// bitmaps"; this package provides that missing relative so the two
// prediction styles can be compared on the same traces.
//
// Specialised to the ownership-request stream our traces record, the
// predictor guesses the *sender of the next exclusive request* (the next
// writer) for each block: a per-block history register of the last Depth
// writers indexes a per-block pattern table whose entries hold a predicted
// next writer with 2-bit hysteresis — Cosmos's two-level <sender> structure
// with message types abstracted away. Depth 0 degenerates to "the same
// writer again".
//
// The natural consumer of a next-writer prediction is migratory
// optimisation (hand the block to its next owner early), complementing the
// reader-set predictors of internal/core.
package cosmos

import (
	"fmt"

	"cohpredict/internal/trace"
)

// maxHistory bounds the history depth (writer ids are packed in a uint64
// key, 6 bits each).
const maxHistory = 8

// pattern is one pattern-table entry: a predicted next writer with a 2-bit
// hysteresis counter (replace only after two consecutive misses, as in
// Cosmos's message history tables).
type pattern struct {
	next int
	conf uint8
}

// blockEntry is the per-block two-level state.
type blockEntry struct {
	hist     uint64 // packed last-Depth writer ids
	histLen  int
	patterns map[uint64]*pattern
}

// Predictor predicts the next writer of each block.
type Predictor struct {
	depth  int
	blocks map[uint64]*blockEntry
}

// New returns a predictor with the given history depth (0–8). Depth 0
// predicts the previous writer again.
func New(depth int) *Predictor {
	if depth < 0 || depth > maxHistory {
		//predlint:ignore panicfree construction-time depth bounds
		panic(fmt.Sprintf("cosmos: depth %d outside [0,%d]", depth, maxHistory))
	}
	return &Predictor{depth: depth, blocks: make(map[uint64]*blockEntry)}
}

// Predict returns the predicted next writer of the block, and whether the
// predictor has an opinion (a trained pattern for the current history, or
// any previous writer for depth 0).
func (p *Predictor) Predict(addr uint64) (writer int, known bool) {
	e, ok := p.blocks[addr]
	if !ok {
		return 0, false
	}
	if p.depth == 0 {
		if e.histLen == 0 {
			return 0, false
		}
		return int(e.hist & 0x3F), true
	}
	if e.histLen < p.depth {
		return 0, false
	}
	pat, ok := e.patterns[e.hist]
	if !ok {
		return 0, false
	}
	return pat.next, true
}

// Observe records that writer performed the block's next exclusive request,
// training the pattern table and shifting the history register.
func (p *Predictor) Observe(addr uint64, writer int) {
	e, ok := p.blocks[addr]
	if !ok {
		e = &blockEntry{}
		if p.depth > 0 {
			e.patterns = make(map[uint64]*pattern)
		}
		p.blocks[addr] = e
	}
	if p.depth > 0 && e.histLen >= p.depth {
		pat, ok := e.patterns[e.hist]
		switch {
		case !ok:
			e.patterns[e.hist] = &pattern{next: writer, conf: 1}
		case pat.next == writer:
			if pat.conf < 3 {
				pat.conf++
			}
		default:
			if pat.conf > 0 {
				pat.conf--
			} else {
				pat.next = writer
				pat.conf = 1
			}
		}
	}
	// Shift the writer into the history register.
	width := p.depth
	if width == 0 {
		width = 1
	}
	mask := uint64(1)<<(6*uint(width)) - 1
	e.hist = ((e.hist << 6) | uint64(writer&0x3F)) & mask
	if e.histLen < width {
		e.histLen++
	}
}

// Result summarises an evaluation run.
type Result struct {
	Depth int
	// Predictions counts events where the predictor had an opinion;
	// Correct counts those where the opinion matched the actual writer.
	Events      uint64
	Predictions uint64
	Correct     uint64
}

// Accuracy is Correct/Predictions (0 when no predictions were made).
func (r Result) Accuracy() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Predictions)
}

// Coverage is Predictions/Events.
func (r Result) Coverage() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Predictions) / float64(r.Events)
}

// Evaluate replays a trace and measures next-writer prediction accuracy.
// Only warm events (the block has a previous writer) are scored: the first
// request for a block is unpredictable by construction.
func Evaluate(depth int, tr *trace.Trace) Result {
	p := New(depth)
	res := Result{Depth: depth}
	for i := range tr.Events {
		ev := tr.Events[i]
		if ev.HasPrev {
			res.Events++
			if pred, known := p.Predict(ev.Addr); known {
				res.Predictions++
				if pred == int(ev.PID) {
					res.Correct++
				}
			}
		}
		p.Observe(ev.Addr, int(ev.PID))
	}
	return res
}
