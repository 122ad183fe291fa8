package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/trace"
)

func sample() *trace.Trace {
	tr := &trace.Trace{Nodes: 16}
	for i := 0; i < 40; i++ {
		tr.Events = append(tr.Events, trace.Event{
			PID: uint8(i % 4), PC: uint64(20 + i%3), Dir: 1, Addr: uint64(i%8) * 64,
			InvReaders:    bitmap.New(5),
			FutureReaders: bitmap.New(5, 6),
			HasPrev:       i > 7, PrevPID: uint8((i + 3) % 4), PrevPC: 20,
		})
	}
	return tr
}

func TestInspect(t *testing.T) {
	var buf bytes.Buffer
	if err := inspect(&buf, "sample", sample(), 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"16 nodes, 40 events", "blocks: 8", "prevalence: 12.50%",
		"reader-set size histogram", "2 readers", "busiest", "events per writer node",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestInspectEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := inspect(&buf, "empty", &trace.Trace{Nodes: 4}, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 events") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestInspectFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sample().Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var buf bytes.Buffer
	if err := inspectFile(&buf, path, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "40 events") {
		t.Fatal("file round trip failed")
	}
	if err := inspectFile(&buf, filepath.Join(dir, "missing"), 3); err == nil {
		t.Fatal("missing file accepted")
	}

	// Future readers 8-15 on a 4-node machine: Read must refuse the
	// file before inspect indexes its histogram by reader count.
	wide := filepath.Join(dir, "wide.trace")
	f, err = os.Create(wide)
	if err != nil {
		t.Fatal(err)
	}
	bad := &trace.Trace{Nodes: 4, Events: []trace.Event{{FutureReaders: 0xff00}}}
	if err := bad.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := inspectFile(&buf, wide, 3); err == nil {
		t.Fatal("trace with readers beyond its machine accepted")
	}
}

func TestHashBar(t *testing.T) {
	if hashBar(0) != "" {
		t.Errorf("hashBar(0) = %q", hashBar(0))
	}
	if got := hashBar(200); len(got) != 50 {
		t.Errorf("hashBar clamp failed: %d", len(got))
	}
}
