package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohpredict/internal/cluster"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/traffic"
)

// runPredload runs predload's entry point with the given arguments, its
// stdout sent to a file, and returns what run returned.
func runPredload(t *testing.T, args ...string) error {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, osArgs }()
	os.Stdout = out
	os.Args = append([]string{"predload"}, args...)
	flag.CommandLine = flag.NewFlagSet("predload", flag.ContinueOnError)
	return run()
}

// shortRun is a sub-second plan: two sessions of 1024 events each.
func shortRun(target, out string) []string {
	return []string{
		"-target", target, "-rate", "400", "-duration", "300ms",
		"-sessions", "2", "-session-events", "1024", "-seed", "7", "-out", out,
	}
}

// startServer runs one predserve backend in-process and returns its URL.
func startServer(t *testing.T) string {
	t.Helper()
	srv := serve.NewServer(serve.Options{Registry: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })
	return ts.URL
}

// startCluster runs two backends and a standby behind a router, all
// in-process, and returns the router's URL.
func startCluster(t *testing.T) string {
	t.Helper()
	rt, err := cluster.New(cluster.Options{
		Backends: []string{startServer(t), startServer(t)},
		Standby:  startServer(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return ts.URL
}

// decodeStrict reads path into v, refusing fields v does not have.
func decodeStrict(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s does not decode strictly: %v", path, err)
	}
}

func TestDefaultModeWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := runPredload(t, shortRun(startServer(t), path)...); err != nil {
		t.Fatal(err)
	}
	var rep traffic.Report
	decodeStrict(t, path, &rep)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.OK != rep.Requests {
		t.Fatalf("%d/%d requests ok against a healthy server", rep.OK, rep.Requests)
	}
	if rep.ServerP50Ms <= 0 || rep.ServerP99Ms <= 0 {
		t.Fatalf("server p50 %v p99 %v: not read from /metrics", rep.ServerP50Ms, rep.ServerP99Ms)
	}
}

func TestClusterVerdict(t *testing.T) {
	router := startCluster(t)
	for _, tc := range []struct {
		name, slo string
		holds     bool
	}{
		{"holds", "60000", true},
		{"fails", "0.000001", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cluster.json")
			err := runPredload(t, append(shortRun(router, path), "-cluster", "-slo-p99", tc.slo)...)
			switch {
			case tc.holds && err != nil:
				t.Fatal(err)
			case !tc.holds && (err == nil || !strings.Contains(err.Error(), "capacity verdict: fails")):
				t.Fatalf("run returned %v, want the failing verdict", err)
			}
			var rep traffic.ClusterReport
			decodeStrict(t, path, &rep)
			if err := rep.Validate(); err != nil {
				t.Fatal(err)
			}
			if rep.Holds != tc.holds || rep.Backends != 2 || len(rep.PerBackend) != 3 {
				t.Fatalf("holds %v (%q), %d serving of %d rows; want holds %v, 2 of 3",
					rep.Holds, rep.Reason, rep.Backends, len(rep.PerBackend), tc.holds)
			}
			if !tc.holds && !strings.Contains(rep.Reason, "over the") {
				t.Fatalf("failing verdict's reason %q does not name the budget", rep.Reason)
			}
		})
	}
}
