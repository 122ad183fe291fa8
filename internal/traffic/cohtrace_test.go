package traffic

import (
	"bytes"
	"errors"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
	"cohpredict/internal/trace"
)

// sampleRecords is a small well-formed trace: two sessions, three
// requests, exercising both event shapes (with and without prev).
func sampleRecords() []TraceRecord {
	return []TraceRecord{
		{Kind: TraceKindSession, Session: TraceSession{
			Seq: 0, Scheme: "union(dir+add8)2", Nodes: 16, LineBytes: 64, Shards: 2,
		}},
		{Kind: TraceKindRequest, Request: TraceRequest{
			Session: 0, ArrivalNS: 10, ID: "0000000000000001-r1",
			Events: []trace.Event{
				{PID: 0, PC: 20, Dir: 0, Addr: 4096, InvReaders: 6, FutureReaders: 6},
				{PID: 3, PC: 21, Dir: 1, Addr: 4160, InvReaders: 0, HasPrev: true, PrevPID: 2, PrevPC: 19, FutureReaders: 9},
			},
		}},
		{Kind: TraceKindSession, Session: TraceSession{
			Seq: 1, Scheme: "last()1", Nodes: 4, LineBytes: 32, Shards: 1,
		}},
		{Kind: TraceKindRequest, Request: TraceRequest{
			Session: 1, ArrivalNS: 10, ID: "",
			Events: []trace.Event{{PID: 1, PC: 7, Dir: 2, Addr: 64, InvReaders: 1, FutureReaders: 8}},
		}},
		{Kind: TraceKindRequest, Request: TraceRequest{
			Session: 0, ArrivalNS: 25, ID: "0000000000000001-r2",
			Events: []trace.Event{{PID: 15, PC: 1 << 40, Dir: 15, Addr: 1 << 50, InvReaders: 1<<16 - 1, FutureReaders: 1<<16 - 1}},
		}},
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := EncodeTraceFile(recs)
	if !IsTraceFile(data) {
		t.Fatal("encoded file does not carry the magic")
	}
	got, err := DecodeTraceFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	// Canonical: re-encoding the decode reproduces the input exactly.
	if re := EncodeTraceFile(got); !bytes.Equal(re, data) {
		t.Fatalf("Encode(Decode(b)) != b:\n got %x\nwant %x", re, data)
	}
	// Spot-check field fidelity through the round trip.
	if got[1].Request.Events[1].PrevPID != 2 || !got[1].Request.Events[1].HasPrev {
		t.Fatalf("prev fields lost: %+v", got[1].Request.Events[1])
	}
	if got[2].Session.Scheme != "last()1" || got[2].Session.Nodes != 4 {
		t.Fatalf("session fields lost: %+v", got[2].Session)
	}
}

func TestTraceRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		data := AppendTraceRecord(nil, &rec)
		got, n, err := DecodeTraceRecord(data)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if n != len(data) {
			t.Fatalf("record %d: consumed %d of %d bytes", i, n, len(data))
		}
		if re := AppendTraceRecord(nil, &got); !bytes.Equal(re, data) {
			t.Fatalf("record %d: Encode(Decode(b)) != b", i)
		}
	}
}

func TestTraceEmptyFile(t *testing.T) {
	data := EncodeTraceFile(nil)
	recs, err := DecodeTraceFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty file decoded %d records", len(recs))
	}
}

// corrupt applies f to a copy of the encoded sample file.
func corrupt(f func(b []byte) []byte) []byte {
	return f(append([]byte(nil), EncodeTraceFile(sampleRecords())...))
}

func TestTraceFileErrors(t *testing.T) {
	okRecs := sampleRecords()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errTraceMagic},
		{"bad magic", []byte("COHTRACE2xxxxx"), errTraceMagic},
		{"magic only", []byte(traceMagic), codec.ErrTruncated},
		{"trailing byte", corrupt(func(b []byte) []byte { return append(b, 0) }), codec.ErrTrailing},
		{"truncated tail", corrupt(func(b []byte) []byte { return b[:len(b)-1] }), codec.ErrTruncated},
		{"count exceeds input", append([]byte(traceMagic), 0xff, 0x7f), codec.ErrCount},
		{"non-minimal count", append([]byte(traceMagic), 0x80, 0x00), codec.ErrNonMinimal},
		{"unknown kind", append([]byte(traceMagic), 1, 3, 0, 0, 0, 0), errTraceKind},
		{"seq out of order", EncodeTraceFile([]TraceRecord{
			{Kind: TraceKindSession, Session: TraceSession{Seq: 1, Scheme: "last()1", Nodes: 4, LineBytes: 64, Shards: 1}},
		}), errTraceSessionSeq},
		{"undeclared session", EncodeTraceFile(okRecs[1:2]), errTraceSessionRef},
		{"arrival decreases", EncodeTraceFile([]TraceRecord{
			okRecs[0],
			{Kind: TraceKindRequest, Request: TraceRequest{Session: 0, ArrivalNS: 9, ID: "a",
				Events: okRecs[1].Request.Events[:1]}},
			{Kind: TraceKindRequest, Request: TraceRequest{Session: 0, ArrivalNS: 8, ID: "b",
				Events: okRecs[1].Request.Events[:1]}},
		}), errTraceArrival},
		{"event beyond session machine", EncodeTraceFile([]TraceRecord{
			okRecs[2].withSeq(0), // 4-node session
			{Kind: TraceKindRequest, Request: TraceRequest{Session: 0, ArrivalNS: 1, ID: "a",
				Events: []trace.Event{{PID: 5, PC: 1, Dir: 0, Addr: 64, FutureReaders: 1}}}},
		}), trace.ErrRange},
	}
	for _, tc := range cases {
		_, err := DecodeTraceFile(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// withSeq is a test helper copying a session record onto a new sequence.
func (r TraceRecord) withSeq(seq uint64) TraceRecord {
	r.Session.Seq = seq
	return r
}

func TestTraceRecordErrors(t *testing.T) {
	enc := func(rec TraceRecord) []byte { return AppendTraceRecord(nil, &rec) }
	session := func(mut func(*TraceSession)) []byte {
		s := sampleRecords()[0]
		mut(&s.Session)
		return enc(s)
	}
	request := func(mut func(*TraceRequest)) []byte {
		q := sampleRecords()[1]
		mut(&q.Request)
		return enc(q)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, codec.ErrTruncated},
		{"empty scheme", session(func(s *TraceSession) { s.Scheme = "" }), errTraceConfig},
		{"zero nodes", session(func(s *TraceSession) { s.Nodes = 0 }), errTraceConfig},
		{"nodes beyond bitmap", session(func(s *TraceSession) { s.Nodes = bitmap.MaxNodes + 1 }), errTraceConfig},
		{"line bytes not power of two", session(func(s *TraceSession) { s.LineBytes = 48 }), errTraceConfig},
		{"line bytes beyond 1 MiB", session(func(s *TraceSession) { s.LineBytes = 2 << 20 }), errTraceConfig},
		{"zero shards", session(func(s *TraceSession) { s.Shards = 0 }), errTraceConfig},
		{"too many shards", session(func(s *TraceSession) { s.Shards = maxTraceShards + 1 }), errTraceConfig},
		{"empty batch", request(func(q *TraceRequest) { q.Events = nil }), codec.ErrCount},
		{"pid out of range", request(func(q *TraceRequest) {
			q.Events = []trace.Event{{PID: bitmap.MaxNodes, PC: 1, FutureReaders: 1}}
		}), trace.ErrRange},
		{"prev pid out of range", request(func(q *TraceRequest) {
			q.Events = []trace.Event{{PID: 0, PC: 1, HasPrev: true, PrevPID: bitmap.MaxNodes, FutureReaders: 1}}
		}), trace.ErrRange},
		{"oversized string", request(func(q *TraceRequest) {
			q.ID = string(make([]byte, maxTraceString+1))
		}), codec.ErrCount},
		// Record [3] encodes as [kind sess arrival idlen count pid pc dir
		// addr inv hp future]; cut at the hp byte and write 2 (plus one pad
		// byte so the count bound still passes).
		{"non-boolean has_prev", append(enc(sampleRecords()[3])[:10], 2, 0), codec.ErrBool},
	}
	for _, tc := range cases {
		_, _, err := DecodeTraceRecord(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestTraceNonMinimalVarintRejected pins canonicality: widening any
// varint in a valid record to a redundant two-byte form must be refused.
func TestTraceNonMinimalVarintRejected(t *testing.T) {
	rec := sampleRecords()[3] // one-event request with an empty ID
	data := AppendTraceRecord(nil, &rec)
	// data[0] is the kind (1 byte, value 2); re-encode it non-minimally.
	wide := append([]byte{0x82, 0x00}, data[1:]...)
	if _, _, err := DecodeTraceRecord(wide); !errors.Is(err, codec.ErrNonMinimal) {
		t.Fatalf("non-minimal kind accepted: %v", err)
	}
}
