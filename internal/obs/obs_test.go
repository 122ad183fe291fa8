package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentHammer drives every instrument from many
// goroutines at once; the race detector checks the synchronisation and the
// final values check that no update is lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := New()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("hammer_total").Add(1)
				r.Counter(fmt.Sprintf("worker_%d_total", w)).Inc()
				r.Gauge("level").Add(1)
				r.Histogram("lat", DurationBuckets).Observe(float64(i) / iters)
				r.ObserveSpan("hammer/span", time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_total").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("level").Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	if got := r.Snapshot().Histograms["lat"].Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Count != workers*iters {
		t.Errorf("spans = %+v, want one span with count %d", spans, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("worker_%d_total", w)).Value(); got != iters {
			t.Errorf("worker %d counter = %d, want %d", w, got, iters)
		}
	}
}

// TestSnapshotDeterminism: two snapshots of an idle registry are
// value-identical (modulo the wall clock), and the JSON encoding emits
// names in sorted order.
func TestSnapshotDeterminism(t *testing.T) {
	r := New()
	r.Counter("zeta_total").Add(2)
	r.Counter("alpha_total").Add(1)
	r.Gauge("mid").Set(3.5)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	r.ObserveSpan("b", time.Second)
	r.ObserveSpan("a/x", time.Second)

	a, b := r.Snapshot(), r.Snapshot()
	a.WallSeconds, b.WallSeconds = 0, 0
	a.SpanCoverage, b.SpanCoverage = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots differ:\n%+v\n%+v", a, b)
	}

	data, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if i, j := strings.Index(string(data), "alpha_total"), strings.Index(string(data), "zeta_total"); i < 0 || j < 0 || i > j {
		t.Errorf("counter names not sorted in JSON (alpha at %d, zeta at %d)", i, j)
	}
	var parsed Snapshot
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("snapshot JSON not parseable: %v\n%s", err, data)
	}
	if parsed.Counters["zeta_total"] != 2 || len(parsed.Spans) != 2 {
		t.Errorf("round-trip lost data: %+v", parsed)
	}
	if parsed.Spans[0].Path != "a/x" || parsed.Spans[1].Path != "b" {
		t.Errorf("spans not sorted: %+v", parsed.Spans)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := New().Histogram("h", []float64{0.5, 2})
	for _, v := range []float64{0.25, 0.5, 1, 4} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []BucketCount{{LE: "0.5", Count: 2}, {LE: "2", Count: 3}, {LE: "+Inf", Count: 4}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", s.Buckets, want)
	}
	if s.Count != 4 || s.Sum != 5.75 {
		t.Errorf("count=%d sum=%v, want 4 and 5.75", s.Count, s.Sum)
	}
}

// TestNilSafety: a nil registry and the handles it resolves are inert but
// never panic — optional instrumentation needs no call-site branches.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h", DurationBuckets).Observe(1)
	r.Span("s")()
	r.ObserveSpan("s", time.Second)
	r.SetManifest(Manifest{})
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter = %d", v)
	}
	if tree := r.SpanTree(); tree != "" {
		t.Errorf("nil span tree = %q", tree)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || s.Spans != nil {
		t.Errorf("nil snapshot = %+v", s)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	var l *Logger
	l.Infof("dropped %d", 1)
	l.Debugf("dropped")
}

func TestSpanTreeNesting(t *testing.T) {
	r := New()
	r.ObserveSpan("generate", 2*time.Second)
	r.ObserveSpan("table/8", 4*time.Second)
	r.ObserveSpan("table/8/eval", 3900*time.Millisecond)
	r.ObserveSpan("table/8/eval", 100*time.Millisecond)
	tree := r.SpanTree()
	for _, want := range []string{"generate", "table/8", "table/8/eval", "x2", "span tree (wall"} {
		if !strings.Contains(tree, want) {
			t.Errorf("span tree missing %q:\n%s", want, tree)
		}
	}
	// The child renders indented two spaces deeper than its parent.
	var parentIndent, childIndent int
	for _, line := range strings.Split(tree, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "table/8 ") {
			parentIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "table/8/eval") {
			childIndent = len(line) - len(trimmed)
		}
	}
	if childIndent != parentIndent+2 {
		t.Errorf("child indent %d, parent %d:\n%s", childIndent, parentIndent, tree)
	}
	// Coverage counts only top-level spans: generate + table/8, not the
	// nested eval.
	spans := r.Spans()
	exists := map[string]bool{}
	for _, s := range spans {
		exists[s.Path] = true
	}
	if p := spanParent("table/8/eval", exists); p != "table/8" {
		t.Errorf("parent of table/8/eval = %q", p)
	}
	if p := spanParent("table/8", exists); p != "" {
		t.Errorf("parent of table/8 = %q (no \"table\" span exists)", p)
	}
}

func TestSpanMeasuresElapsed(t *testing.T) {
	r := New()
	end := r.Span("sleep")
	time.Sleep(10 * time.Millisecond)
	end()
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Seconds < 0.009 {
		t.Errorf("spans = %+v, want one span >= ~10ms", spans)
	}
}

func TestLoggerLevels(t *testing.T) {
	var lines []string
	sink := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	l := NewLogger(Info, sink)
	l.Infof("info %d", 1)
	l.Debugf("debug %d", 2)
	if len(lines) != 1 || lines[0] != "info 1" {
		t.Errorf("Info-level lines = %q", lines)
	}

	lines = nil
	l = NewLogger(Debug, sink)
	l.Infof("info")
	l.Debugf("debug")
	if len(lines) != 2 {
		t.Errorf("Debug-level lines = %q", lines)
	}

	lines = nil
	l = NewLogger(Quiet, sink)
	l.Infof("info")
	l.Debugf("debug")
	if len(lines) != 0 {
		t.Errorf("Quiet-level lines = %q", lines)
	}
}

// TestLoggerSerialisesSink: concurrent emitters append to a plain slice
// through the sink; the mutex (checked by -race) and the final count prove
// calls are serialised.
func TestLoggerSerialisesSink(t *testing.T) {
	var lines []string
	l := NewLogger(Info, func(format string, args ...interface{}) {
		lines = append(lines, format)
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Infof("line")
			}
		}()
	}
	wg.Wait()
	if len(lines) != 800 {
		t.Errorf("lines = %d, want 800", len(lines))
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{Quiet: "quiet", Info: "info", Debug: "debug", Level(9): "unknown"} {
		if got := lv.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", lv, got, want)
		}
	}
}

// TestParseLevel round-trips every level through String and ParseLevel,
// and rejects names no level prints — including String's "unknown".
func TestParseLevel(t *testing.T) {
	for _, lv := range []Level{Quiet, Info, Debug} {
		if got, err := ParseLevel(lv.String()); err != nil || got != lv {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", lv.String(), got, err, lv)
		}
	}
	for _, name := range []string{"unknown", "", "INFO", "verbose"} {
		if _, err := ParseLevel(name); err == nil {
			t.Errorf("ParseLevel(%q) accepted an unknown name", name)
		}
	}
}

func TestManifest(t *testing.T) {
	m := NewManifest(42, "test", 4)
	if m.Seed != 42 || m.Scale != "test" || m.Workers != 4 {
		t.Errorf("manifest params: %+v", m)
	}
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" {
		t.Errorf("manifest runtime identity empty: %+v", m)
	}
	if _, err := time.Parse(time.RFC3339, m.StartedAt); err != nil {
		t.Errorf("StartedAt %q not RFC3339: %v", m.StartedAt, err)
	}
	r := New()
	r.SetManifest(m)
	snap := r.Snapshot()
	if snap.Manifest == nil || snap.Manifest.Seed != 42 {
		t.Errorf("snapshot manifest = %+v", snap.Manifest)
	}
}

func TestVersion(t *testing.T) {
	v := Version()
	if v == "" || !strings.Contains(v, "go1") {
		t.Errorf("Version() = %q", v)
	}
}
