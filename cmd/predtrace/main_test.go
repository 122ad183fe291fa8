package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cohpredict/internal/client"
	"cohpredict/internal/flight"
	"cohpredict/internal/serve"
)

func entry(seq uint64, id string, totalNS int64) flight.Entry {
	return flight.Entry{
		Seq: seq, ID: id, Route: "events", Transport: "wire",
		Status: 200, Events: 256,
		TotalNS: totalNS, DecodeNS: totalNS / 10, QueueNS: totalNS / 4,
		BatchNS: totalNS / 2, ExecNS: totalNS / 8, EncodeNS: totalNS / 40,
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestStageStats(t *testing.T) {
	entries := []flight.Entry{entry(1, "a", 1e6), entry(2, "b", 3e6)}
	stats := stageStats(entries)
	if len(stats) != 6 || stats[len(stats)-1].Name != "total" {
		t.Fatalf("stats = %+v", stats)
	}
	total := stats[len(stats)-1]
	if math.Abs(total.P50-2) > 1e-9 || math.Abs(total.Max-3) > 1e-9 {
		t.Fatalf("total p50/max = %v/%v, want 2/3", total.P50, total.Max)
	}
	if stats[0].Name != "decode" || math.Abs(stats[0].Max-0.3) > 1e-9 {
		t.Fatalf("decode row = %+v", stats[0])
	}
}

func TestWaterfallBar(t *testing.T) {
	e := entry(1, "a", 32e6)
	bar := waterfallBar(e, 32e6)
	if len(bar) != barWidth {
		t.Fatalf("bar width %d, want %d", len(bar), barWidth)
	}
	// Stage shares of the bar mirror their share of maxNS: batch is half
	// the total, so roughly half the bar.
	if n := strings.Count(bar, "b"); n < barWidth/2-2 || n > barWidth/2+2 {
		t.Fatalf("batch segment %d cells of %d: %q", n, barWidth, bar)
	}
	// A short request against a long scale pads with dots but keeps every
	// live stage visible at >= 1 cell.
	small := waterfallBar(entry(2, "b", 1e6), 32e6)
	for _, st := range []string{"d", "q", "b", "x", "e"} {
		if !strings.Contains(small, st) {
			t.Fatalf("stage %q invisible in %q", st, small)
		}
	}
	if !strings.Contains(small, ".") {
		t.Fatalf("short bar not padded: %q", small)
	}
	// Zero scale must not divide by zero.
	if got := waterfallBar(flight.Entry{}, 0); got != strings.Repeat(".", barWidth) {
		t.Fatalf("zero bar = %q", got)
	}
}

func TestRenderCapture(t *testing.T) {
	cap := flight.Capture{
		Kind: flight.KindSlow, Sample: 64, SlowNS: 25e6, Seen: 9,
		Requests: []flight.Entry{entry(1, "req-a", 1e6), entry(2, "req-b", 5e6)},
	}
	cap.Requests[1].Faults = []string{"delay"}
	cap.Requests[1].Replay = true

	var b strings.Builder
	renderCapture(&b, cap, 1)
	out := b.String()
	for _, want := range []string{
		"capture: slow (sample 1/64, slow >= 25ms, seen 9, 2 records)",
		"stage", "decode", "total",
		"slowest 1 of 2",
		"req-b", "faults=delay", "replay",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "req-a") {
		t.Fatalf("top=1 rendered more than one row:\n%s", out)
	}

	b.Reset()
	renderCapture(&b, flight.Capture{Kind: flight.KindRequests, Sample: 1}, 5)
	if !strings.Contains(b.String(), "no captured requests") {
		t.Fatalf("empty render = %q", b.String())
	}
}

func TestRenderDiff(t *testing.T) {
	before := flight.Capture{Requests: []flight.Entry{entry(1, "a", 2e6)}}
	after := flight.Capture{Requests: []flight.Entry{entry(1, "b", 4e6)}}
	var b strings.Builder
	renderDiff(&b, before, after)
	out := b.String()
	if !strings.Contains(out, "diff: 1 -> 1 records") || !strings.Contains(out, "+100%") {
		t.Fatalf("diff output:\n%s", out)
	}
}

func TestDelta(t *testing.T) {
	for _, tc := range []struct {
		before, after float64
		want          string
	}{
		{0, 0, "0%"}, {0, 1, "new"}, {2, 1, "-50%"}, {1, 3, "+200%"},
	} {
		if got := delta(tc.before, tc.after); got != tc.want {
			t.Errorf("delta(%v, %v) = %q, want %q", tc.before, tc.after, got, tc.want)
		}
	}
}

// TestRunFileModes drives run() through the -in / -save / -diff flags on
// saved captures: load, render, save a copy, diff the copy against the
// original.
func TestRunFileModes(t *testing.T) {
	dir := t.TempDir()
	cap := flight.Capture{
		Kind: flight.KindRequests, Sample: 1, Seen: 2,
		Requests: []flight.Entry{entry(1, "a", 1e6), entry(2, "b", 2e6)},
	}
	data, err := json.Marshal(cap)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.json")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	saved := filepath.Join(dir, "out.json")
	var b strings.Builder
	if err := run(&b, []string{"-in", in, "-save", saved}); err != nil {
		t.Fatalf("run -in: %v", err)
	}
	if !strings.Contains(b.String(), "2 records") {
		t.Fatalf("render = %q", b.String())
	}
	round, err := loadCapture(saved)
	if err != nil || len(round.Requests) != 2 {
		t.Fatalf("saved capture round-trip: %v, %d requests", err, len(round.Requests))
	}

	b.Reset()
	if err := run(&b, []string{"-in", in, "-diff", saved}); err != nil {
		t.Fatalf("run -diff: %v", err)
	}
	if !strings.Contains(b.String(), "diff: 2 -> 2 records") {
		t.Fatalf("diff render = %q", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, []string{"-in", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing -in file did not error")
	}
	if err := run(io.Discard, []string{"-base", "http://127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable server did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"-in", bad}); err == nil {
		t.Fatal("corrupt capture did not error")
	}
}

// tracedServer boots a server whose flight recorder keeps every events
// post, in the sampled ring or, at or above slow, in the slow-log, and
// posts one batch under each request id.
func tracedServer(t *testing.T, slow time.Duration, ids []string) string {
	t.Helper()
	srv := serve.NewServer(serve.Options{
		Flight: flight.New(flight.Options{Sample: 1, SlowThreshold: slow}),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	cl := client.New(client.Options{BaseURL: ts.URL, Seed: 7, Binary: true})
	sess, err := cl.CreateSession(serve.CreateSessionRequest{Scheme: "last(dir+add8)1", Nodes: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		evs := []serve.EventRequest{{PID: uint8(i), PC: 40, Addr: 0x1000, InvReaders: 6, FutureReaders: 6}}
		if _, err := cl.PostEventsKeyedID(sess.ID, cl.NextIdempotencyKey(), id, evs); err != nil {
			t.Fatalf("post %s: %v", id, err)
		}
	}
	return ts.URL
}

// TestRunFetch drives run() against a live server's flight recorder:
// the sampled ring, then the slow-log, then a server without the debug
// endpoints, whose error must name the path it tried.
func TestRunFetch(t *testing.T) {
	ids := []string{"fetch-a", "fetch-b", "fetch-c"}
	for _, tc := range []struct {
		slow   time.Duration
		args   []string
		header string
	}{
		{time.Hour, nil, "capture: requests (sample 1/1"},
		{time.Nanosecond, []string{"-slow"}, "capture: slow (sample 1/1"},
	} {
		base := tracedServer(t, tc.slow, ids)
		var b strings.Builder
		if err := run(&b, append([]string{"-base", base + "/"}, tc.args...)); err != nil {
			t.Fatalf("run %v: %v", tc.args, err)
		}
		out := b.String()
		for _, want := range append([]string{tc.header, "3 records", "slowest 3 of 3"}, ids...) {
			if !strings.Contains(out, want) {
				t.Fatalf("run %v output missing %q:\n%s", tc.args, want, out)
			}
		}
	}

	missing := httptest.NewServer(http.NotFoundHandler())
	defer missing.Close()
	for _, tc := range []struct {
		args []string
		path string
	}{
		{nil, "/v1/debug/requests"},
		{[]string{"-slow"}, "/v1/debug/slow"},
	} {
		err := run(io.Discard, append([]string{"-base", missing.URL}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.path) || !strings.Contains(err.Error(), "404") {
			t.Fatalf("run %v against a 404 server: got %v, want an error naming %s", tc.args, err, tc.path)
		}
	}
}
