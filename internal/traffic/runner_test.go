package traffic

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// shortPlan builds a sub-second open-loop schedule for smoke tests.
func shortPlan(t *testing.T, arrival string) *Plan {
	t.Helper()
	cfg := testGenConfig()
	cfg.Arrival = arrival
	cfg.Rate = 400
	cfg.Duration = 300 * time.Millisecond
	cfg.Sessions = 2
	cfg.SessionEvents = 1024
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRunOpenLoopSmoke(t *testing.T) {
	srv := serve.NewServer(serve.Options{Registry: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()

	plan := shortPlan(t, ArrivalPoisson)
	rep, err := Run(plan, RunOptions{BaseURL: ts.URL, Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != rep.Requests || rep.OK == 0 {
		t.Fatalf("healthy server: %d/%d requests ok", rep.OK, rep.Requests)
	}
	if rep.Requests != len(plan.Requests) {
		t.Fatalf("reported %d requests, plan had %d", rep.Requests, len(plan.Requests))
	}
	if rep.Events != plan.Events() {
		t.Fatalf("reported %d events, plan had %d", rep.Events, plan.Events())
	}
	if rep.Transport != "cohwire" {
		t.Fatalf("transport %q, want cohwire", rep.Transport)
	}
	if rep.EventsPerSec <= 0 || rep.ClientP99Ms <= 0 {
		t.Fatalf("empty SLO measurements: %+v", rep)
	}
	if rep.ServerP50Ms <= 0 || rep.ServerP99Ms <= 0 {
		t.Fatalf("server-side quantiles missing from the /metrics JSON: %+v", rep)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("healthy run's report fails its own schema: %v", err)
	}
	// The report document round-trips through strict JSON.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var back Report
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("report does not survive a strict decode: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCountsBackpressure pins the open-loop property the runner
// exists for: against a server that refuses work, rejections surface as
// 429/503 rates in the report instead of being retried away.
func TestRunCountsBackpressure(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()
	// Leave room for one of the plan's two sessions.
	for i := 0; i < serve.MaxSessions-1; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"scheme":"last(add8)1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("filling session %d: status %d", i, resp.StatusCode)
		}
	}

	plan := shortPlan(t, ArrivalBursty)
	if _, err := Run(plan, RunOptions{BaseURL: ts.URL, Binary: true}); err == nil {
		t.Fatal("session-limited server accepted both sessions")
	}

	// Drain mode refuses event posts with 503; the report must count
	// them, not hide them.
	srv2 := serve.NewServer(serve.Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	plan2 := shortPlan(t, ArrivalPoisson)
	srv2.Shutdown() // drain before any post: every event post sees 503
	rep, err := Run(plan2, RunOptions{BaseURL: ts2.URL, Binary: true})
	if err == nil {
		if rep.OK != 0 || rep.Status503 != rep.Requests {
			t.Fatalf("draining server: %d ok, %d 503s of %d", rep.OK, rep.Status503, rep.Requests)
		}
	} else if !strings.Contains(err.Error(), "creating session") {
		t.Fatal(err)
	}
}

func TestReportValidateRejectsNonsense(t *testing.T) {
	good := Report{
		Schema: SLOSchema, Arrival: ArrivalPoisson, Transport: "cohwire",
		DurationSec: 1, Sessions: 1, Requests: 10, OK: 10, Events: 640,
		EventsPerSec: 640, ReqPerSec: 10, ClientP50Ms: 1, ClientP99Ms: 2,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Report){
		"wrong schema":      func(r *Report) { r.Schema = "predserve-bench/v2" },
		"unknown arrival":   func(r *Report) { r.Arrival = "weibull" },
		"unknown transport": func(r *Report) { r.Transport = "grpc" },
		"zero duration":     func(r *Report) { r.DurationSec = 0 },
		"no requests":       func(r *Report) { r.Requests = 0 },
		"ok beyond total":   func(r *Report) { r.OK = 11 },
		"inverted p50/p99":  func(r *Report) { r.ClientP50Ms = 3 },
		"rate beyond 1":     func(r *Report) { r.Rate429 = 1.5 },
		"negative events":   func(r *Report) { r.Events = -1 },
	} {
		r := good
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
