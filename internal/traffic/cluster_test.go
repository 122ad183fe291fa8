package traffic

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"cohpredict/internal/cluster"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// startCapacityCluster brings up two serving backends plus a standby
// behind a predroute router, all in-process, and returns the router's
// base URL.
func startCapacityCluster(t *testing.T) string {
	t.Helper()
	urls := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Options{Registry: obs.New()})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Shutdown() })
		urls = append(urls, ts.URL)
	}
	sb := serve.NewServer(serve.Options{Registry: obs.New()})
	sbTS := httptest.NewServer(sb.Handler())
	t.Cleanup(func() { sbTS.Close(); sb.Shutdown() })

	rt, err := cluster.New(cluster.Options{Backends: urls, Standby: sbTS.URL})
	if err != nil {
		t.Fatal(err)
	}
	rtTS := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rtTS.Close(); rt.Close() })
	return rtTS.URL
}

func TestRunClusterSmoke(t *testing.T) {
	routerURL := startCapacityCluster(t)
	plan := shortPlan(t, ArrivalPoisson)
	rep, err := RunCluster(plan, ClusterRunOptions{
		RouterURL: routerURL,
		Binary:    true,
		SLOP99Ms:  60_000, // generous: the verdict under load is not this test's subject
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ClusterSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ClusterSchema)
	}
	if !rep.Holds || rep.Reason != "" {
		t.Fatalf("healthy in-process cluster fails its own SLO: %+v", rep)
	}
	if rep.Backends != 2 || len(rep.PerBackend) != 3 {
		t.Fatalf("topology: %d serving of %d rows, want 2 of 3", rep.Backends, len(rep.PerBackend))
	}
	if rep.Aggregate.OK != rep.Aggregate.Requests || rep.Aggregate.OK == 0 {
		t.Fatalf("aggregate: %d/%d requests ok", rep.Aggregate.OK, rep.Aggregate.Requests)
	}

	// The per-backend attribution must account for every event the
	// aggregate saw succeed: all load flows through exactly the listed
	// backends, and each one that trained events reports its latency.
	var events, requests int64
	var standbys int
	for _, b := range rep.PerBackend {
		if b.Standby {
			standbys++
			if b.Events != 0 {
				t.Fatalf("standby %s trained %d events with no failover", b.URL, b.Events)
			}
			continue
		}
		events += b.Events
		requests += b.Requests
		if !b.Healthy {
			t.Fatalf("backend %s reported unhealthy in a fault-free run", b.URL)
		}
		if b.Events > 0 && (b.ServerP50Ms <= 0 || b.ServerP99Ms <= 0) {
			t.Fatalf("backend %s trained %d events but reports server p50 %v p99 %v",
				b.URL, b.Events, b.ServerP50Ms, b.ServerP99Ms)
		}
	}
	if standbys != 1 {
		t.Fatalf("%d standby rows, want 1", standbys)
	}
	if events != int64(rep.Aggregate.Events) {
		t.Fatalf("backends account for %d events, aggregate saw %d", events, rep.Aggregate.Events)
	}
	if requests < int64(rep.Aggregate.Requests) {
		t.Fatalf("backends saw %d requests, aggregate dispatched %d", requests, rep.Aggregate.Requests)
	}
	if rep.Migrations != 0 || rep.Failovers != 0 || rep.Lost != 0 {
		t.Fatalf("fault-free run reports lifecycle churn: %+v", rep)
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
	var back ClusterReport
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("report does not survive a strict decode: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterReportValidateRejectsNonsense(t *testing.T) {
	good := ClusterReport{
		Schema: ClusterSchema, Backends: 2, TargetRPS: 400, SLOP99Ms: 250, Holds: true,
		Aggregate: Report{
			Schema: SLOSchema, Arrival: ArrivalPoisson, Transport: "cohwire",
			DurationSec: 1, Sessions: 1, Requests: 10, OK: 10, Events: 640,
			EventsPerSec: 640, ReqPerSec: 10, ClientP50Ms: 1, ClientP99Ms: 2,
		},
		PerBackend: []BackendReport{
			{URL: "http://a:1", Healthy: true, Sessions: 1, Events: 640, Requests: 10, ServerP50Ms: 1, ServerP99Ms: 2},
			{URL: "http://b:1", Healthy: true},
			{URL: "http://s:1", Healthy: true, Standby: true},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*ClusterReport){
		"wrong schema":         func(r *ClusterReport) { r.Schema = SLOSchema },
		"no backends":          func(r *ClusterReport) { r.Backends = 0 },
		"zero slo":             func(r *ClusterReport) { r.SLOP99Ms = 0 },
		"holds with reason":    func(r *ClusterReport) { r.Reason = "but it holds" },
		"fails without reason": func(r *ClusterReport) { r.Holds = false },
		"bad aggregate":        func(r *ClusterReport) { r.Aggregate.Schema = "nope" },
		"duplicate backend":    func(r *ClusterReport) { r.PerBackend[1].URL = r.PerBackend[0].URL },
		"unnamed backend":      func(r *ClusterReport) { r.PerBackend[1].URL = "" },
		"negative events":      func(r *ClusterReport) { r.PerBackend[0].Events = -1 },
		"inverted quantiles":   func(r *ClusterReport) { r.PerBackend[0].ServerP50Ms = 3 },
		"row count mismatch":   func(r *ClusterReport) { r.Backends = 3 },
		"negative migrations":  func(r *ClusterReport) { r.Migrations = -1 },
	} {
		r := good
		r.PerBackend = append([]BackendReport(nil), good.PerBackend...)
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
