package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

// TestTestScaleGolden pins the reproduction: the three commands
// EXPERIMENTS.md documents for results/test-scale.txt must rebuild it byte
// for byte. Each runs predsim's real entry point with its stdout sent to
// a file.
func TestTestScaleGolden(t *testing.T) {
	want, err := os.ReadFile("../../results/test-scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, args := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, args }()
	os.Stdout = out
	for _, artifact := range []string{"-summary", "-all", "-extensions"} {
		os.Args = []string{"predsim", "-scale", "test", artifact}
		flag.CommandLine = flag.NewFlagSet("predsim", flag.ContinueOnError)
		if err := run(); err != nil {
			t.Fatalf("predsim %s: %v", artifact, err)
		}
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from results/test-scale.txt:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, results/test-scale.txt has %d", len(gotLines), len(wantLines))
}
