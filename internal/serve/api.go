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

// EventRequest is the API's event: trace.Event itself, whose JSON tags
// name the fields. Bitmaps travel as numbers.
type EventRequest = trace.Event

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
	// IdempotencyKeys counts the keys in the session's idempotency
	// cache; IdempotencyReplyBytes sums the reply frames it holds for
	// replays (an acknowledged key holds none).
	IdempotencyKeys       int `json:"idempotency_keys"`
	IdempotencyReplyBytes int `json:"idempotency_reply_bytes"`
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

// CodeKeyAcknowledged machine-classifies the 409 that refuses a post
// under an idempotency key whose reply the client has acknowledged
// (Idempotency-Ack): nothing was trained, and a retry is refused alike.
const CodeKeyAcknowledged = "idempotency_key_acknowledged"

// ErrorResponse is the JSON error envelope every non-2xx response carries.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code, when present, machine-classifies the failure
	// (CodeShardFailed, CodeKeyAcknowledged).
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

// validateEvent checks an API event against an n-node machine, as the
// binary decoder does, and zeroes its prev fields unless has_prev is set.
func validateEvent(ev *trace.Event, nodes int) error {
	full := bitmap.Full(nodes)
	switch {
	case int(ev.PID) >= nodes:
		return fmt.Errorf("serve: pid %d out of range [0,%d)", ev.PID, nodes)
	case int(ev.Dir) >= nodes:
		return fmt.Errorf("serve: dir %d out of range [0,%d)", ev.Dir, nodes)
	case ev.InvReaders&^full != 0:
		return fmt.Errorf("serve: inv_readers %#x has bits beyond node %d", uint64(ev.InvReaders), nodes-1)
	case ev.FutureReaders&^full != 0:
		return fmt.Errorf("serve: future_readers %#x has bits beyond node %d", uint64(ev.FutureReaders), nodes-1)
	case ev.HasPrev && int(ev.PrevPID) >= nodes:
		return fmt.Errorf("serve: prev_pid %d out of range [0,%d)", ev.PrevPID, nodes)
	}
	if !ev.HasPrev {
		ev.PrevPID, ev.PrevPC = 0, 0
	}
	return nil
}

// DecodeEventsInto decodes an events request body — either a single
// event object or a JSON array of them — into validated trace events for
// an n-node machine, appending them to dst (a pooled slice at length 0
// decodes without growing once its capacity has warmed up) and returning
// the extended slice; on error it returns the slice at dst's length.
// Unknown fields are rejected, so a misspelled field fails loudly instead
// of silently zeroing, and a node id that does not fit the event's byte
// fails in the JSON decoder itself. A null body or element is refused:
// the decoder would leave it a zero event, and an empty batch is []. An
// array is decoded one element at a time, each validated as it lands,
// and refused as soon as element MaxBatchEvents+1 starts, so an
// over-long body costs no more than a full batch. Malformed input
// returns an error; it never panics.
func DecodeEventsInto(data []byte, nodes int, dst []trace.Event) ([]trace.Event, error) {
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		return dst, fmt.Errorf("serve: node count %d out of range", nodes)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return dst, fmt.Errorf("serve: empty events body")
	}
	if bytes.HasPrefix(trimmed, jsonNull) {
		return dst, fmt.Errorf("serve: events body is null")
	}
	base, evs := len(dst), dst
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if trimmed[0] != '[' {
		evs = append(evs, trace.Event{})
		if err := dec.Decode(&evs[base]); err != nil {
			return evs[:base], fmt.Errorf("serve: decoding event: %w", err)
		}
		if err := expectEOF(dec); err != nil {
			return evs[:base], err
		}
		if err := validateEvent(&evs[base], nodes); err != nil {
			return evs[:base], fmt.Errorf("serve: event 0: %w", err)
		}
		return evs, nil
	}
	if _, err := dec.Token(); err != nil { // the opening '['
		return evs, fmt.Errorf("serve: decoding event batch: %w", err)
	}
	for dec.More() {
		i := len(evs) - base
		if i == MaxBatchEvents {
			return evs[:base], fmt.Errorf("serve: batch exceeds limit %d events", MaxBatchEvents)
		}
		// More stopped at the element or at the comma before it.
		if bytes.HasPrefix(bytes.TrimLeft(trimmed[dec.InputOffset():], " \t\r\n,"), jsonNull) {
			return evs[:base], fmt.Errorf("serve: event %d is null", i)
		}
		evs = append(evs, trace.Event{})
		if err := dec.Decode(&evs[base+i]); err != nil {
			return evs[:base], fmt.Errorf("serve: decoding event batch: %w", err)
		}
		if err := validateEvent(&evs[base+i], nodes); err != nil {
			return evs[:base], fmt.Errorf("serve: event %d: %w", i, err)
		}
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return evs[:base], fmt.Errorf("serve: decoding event batch: %w", err)
	}
	if err := expectEOF(dec); err != nil {
		return evs[:base], err
	}
	return evs, nil
}

var jsonNull = []byte("null")

// expectEOF rejects trailing garbage after a decoded JSON document.
func expectEOF(dec *json.Decoder) error {
	if dec.More() {
		return fmt.Errorf("serve: trailing data after JSON document")
	}
	return nil
}
