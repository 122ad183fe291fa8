package serve

// This file holds the API wire types and the event-batch decoder. Bitmaps
// travel as uint64 numbers (bit i = node i, matching internal/bitmap);
// Go's encoder and decoder round-trip uint64 exactly, and the paper's
// 16-node machines sit comfortably inside JSON's exact-integer range.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

// CreateSessionRequest creates a live prediction session. Scheme uses the
// paper's notation (core.ParseScheme), e.g. "union(dir+add8)2[forwarded]".
// Zero-valued tuning fields take the server defaults.
type CreateSessionRequest struct {
	Scheme    string `json:"scheme"`
	Nodes     int    `json:"nodes,omitempty"`      // default 16
	LineBytes int    `json:"line_bytes,omitempty"` // default 64
	Shards    int    `json:"shards,omitempty"`     // default: server option
	// BatchSize caps a shard's micro-batch in events (default 256); a
	// partial batch flushes as soon as the shard's queue empties.
	BatchSize int `json:"batch_size,omitempty"`
	// FlushMicros is accepted for older clients and ignored: shards
	// flush when idle, whatever the value.
	FlushMicros int `json:"flush_micros,omitempty"`
	// MaxPending bounds the session's admitted, unprocessed events
	// (default 16384); a post that would exceed it gets 429.
	MaxPending int `json:"max_pending,omitempty"`
}

// CreateSessionResponse echoes the session's effective configuration.
type CreateSessionResponse struct {
	ID        string `json:"id"`
	Scheme    string `json:"scheme"`
	Nodes     int    `json:"nodes"`
	LineBytes int    `json:"line_bytes"`
	Shards    int    `json:"shards"`
	BatchSize int    `json:"batch_size"`
	// FlushMicros is always 0: there is no flush deadline.
	FlushMicros int `json:"flush_micros"`
	MaxPending  int `json:"max_pending"`
}

// EventRequest is one directory write event (mirrors trace.Event).
type EventRequest struct {
	PID           int    `json:"pid"`
	PC            uint64 `json:"pc"`
	Dir           int    `json:"dir"`
	Addr          uint64 `json:"addr"`
	InvReaders    uint64 `json:"inv_readers"`
	HasPrev       bool   `json:"has_prev,omitempty"`
	PrevPID       int    `json:"prev_pid,omitempty"`
	PrevPC        uint64 `json:"prev_pc,omitempty"`
	FutureReaders uint64 `json:"future_readers"`
}

// EventsResponse returns one predicted sharing bitmap per ingested event,
// in request order, writer-masked — exactly eval.Engine.Step's output.
type EventsResponse struct {
	Events      int      `json:"events"`
	Predictions []uint64 `json:"predictions"`
}

// StatsResponse is the session's accumulated screening statistics.
type StatsResponse struct {
	ID           string       `json:"id"`
	Scheme       string       `json:"scheme"`
	Events       uint64       `json:"events"`
	TP           uint64       `json:"tp"`
	FP           uint64       `json:"fp"`
	TN           uint64       `json:"tn"`
	FN           uint64       `json:"fn"`
	Prevalence   float64      `json:"prevalence"`
	Sensitivity  float64      `json:"sensitivity"`
	PVP          float64      `json:"pvp"`
	TableEntries uint64       `json:"table_entries"`
	Shards       []ShardStats `json:"shards"`
}

// SessionListResponse lists live sessions in ID order.
type SessionListResponse struct {
	Sessions []CreateSessionResponse `json:"sessions"`
}

// CodeShardFailed machine-classifies an error response caused by a shard
// worker panic: the session is permanently poisoned, so a retry can only
// fail again (and would first re-train the healthy shards' partitions).
// Clients treat it as non-retryable.
const CodeShardFailed = "shard_failed"

// ErrorResponse is the JSON error envelope every non-2xx response carries.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code, when present, machine-classifies the failure (CodeShardFailed).
	Code string `json:"code,omitempty"`
}

// toSessionConfig converts the wire request into a validated SessionConfig
// (validation itself happens in NewSession via fillDefaults).
func (r *CreateSessionRequest) toSessionConfig(defaultShards int) (SessionConfig, error) {
	sc, err := core.ParseScheme(r.Scheme)
	if err != nil {
		return SessionConfig{}, err
	}
	nodes, lineBytes := r.Nodes, r.LineBytes
	if nodes == 0 {
		nodes = 16
	}
	if lineBytes == 0 {
		lineBytes = 64
	}
	shards := r.Shards
	if shards == 0 {
		shards = defaultShards
	}
	return SessionConfig{
		Scheme:     sc,
		Machine:    core.Machine{Nodes: nodes, LineBytes: lineBytes},
		Shards:     shards,
		BatchSize:  r.BatchSize,
		MaxPending: r.MaxPending,
	}, nil
}

// toEvent validates the wire event against the session's machine and
// converts it to a trace.Event.
func (r *EventRequest) toEvent(nodes int) (trace.Event, error) {
	var ev trace.Event
	if r.PID < 0 || r.PID >= nodes {
		return ev, fmt.Errorf("serve: pid %d out of range [0,%d)", r.PID, nodes)
	}
	if r.Dir < 0 || r.Dir >= nodes {
		return ev, fmt.Errorf("serve: dir %d out of range [0,%d)", r.Dir, nodes)
	}
	full := uint64(bitmap.Full(nodes))
	if r.InvReaders&^full != 0 {
		return ev, fmt.Errorf("serve: inv_readers %#x has bits beyond node %d", r.InvReaders, nodes-1)
	}
	if r.FutureReaders&^full != 0 {
		return ev, fmt.Errorf("serve: future_readers %#x has bits beyond node %d", r.FutureReaders, nodes-1)
	}
	if r.HasPrev && (r.PrevPID < 0 || r.PrevPID >= nodes) {
		return ev, fmt.Errorf("serve: prev_pid %d out of range [0,%d)", r.PrevPID, nodes)
	}
	ev = trace.Event{
		PID:           r.PID,
		PC:            r.PC,
		Dir:           r.Dir,
		Addr:          r.Addr,
		InvReaders:    bitmap.Bitmap(r.InvReaders),
		HasPrev:       r.HasPrev,
		FutureReaders: bitmap.Bitmap(r.FutureReaders),
	}
	if r.HasPrev {
		ev.PrevPID = r.PrevPID
		ev.PrevPC = r.PrevPC
	}
	return ev, nil
}

// DecodeEvents decodes an events request body — either a single event
// object or a JSON array of them — into validated trace events for an
// n-node machine. Unknown fields are rejected, so a misspelled field fails
// loudly instead of silently zeroing. Malformed input returns an error;
// it never panics.
func DecodeEvents(data []byte, nodes int) ([]trace.Event, error) {
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		return nil, fmt.Errorf("serve: node count %d out of range", nodes)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("serve: empty events body")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var reqs []EventRequest
	if trimmed[0] == '[' {
		if err := dec.Decode(&reqs); err != nil {
			return nil, fmt.Errorf("serve: decoding event batch: %w", err)
		}
	} else {
		var one EventRequest
		if err := dec.Decode(&one); err != nil {
			return nil, fmt.Errorf("serve: decoding event: %w", err)
		}
		reqs = []EventRequest{one}
	}
	if err := expectEOF(dec); err != nil {
		return nil, err
	}
	if len(reqs) > MaxBatchEvents {
		return nil, fmt.Errorf("serve: batch of %d events exceeds limit %d", len(reqs), MaxBatchEvents)
	}
	evs := make([]trace.Event, len(reqs))
	for i := range reqs {
		ev, err := reqs[i].toEvent(nodes)
		if err != nil {
			return nil, fmt.Errorf("serve: event %d: %w", i, err)
		}
		evs[i] = ev
	}
	return evs, nil
}

// expectEOF rejects trailing garbage after a decoded JSON document.
func expectEOF(dec *json.Decoder) error {
	if dec.More() {
		return fmt.Errorf("serve: trailing data after JSON document")
	}
	return nil
}
