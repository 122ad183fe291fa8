package traffic

// Cluster capacity planning: the predload -cluster mode answers the
// operator's question "do N backends hold R req/s under my p99 SLO?"
// with a report document instead of a shrug. RunCluster drives the
// predroute front router with the same open-loop plan Run uses, then
// widens the report with what only a cluster has — the /v1/cluster
// status document (topology, migrations, failovers, lost sessions) and
// a per-backend attribution read from each backend's own /metrics
// JSON. The verdict (Holds) is explicit and machine checkable, and
// ClusterReport.Validate checks the document predload writes.

import (
	"fmt"
	"io"
	"net/http"

	"cohpredict/internal/cluster"
)

// ClusterSchema identifies the cluster capacity-planning report
// document.
const ClusterSchema = "predload-cluster/v1"

// BackendReport is one backend's row in the capacity report: its
// health and placement load from the router's status document, plus
// event/request tallies and latency quantiles read from the backend's
// own /metrics JSON (zeros when the read fails — a dead backend still
// gets a row).
type BackendReport struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Standby bool   `json:"standby,omitempty"`
	// Sessions counts sessions homed on this backend after the run.
	Sessions int `json:"sessions"`
	// Events and Requests are the backend's own serve_events_total and
	// serve_http_requests_total counters — the per-node share of the load.
	Events   int64 `json:"events"`
	Requests int64 `json:"http_requests"`
	// Server-side event-post latency from this backend's flight
	// recorder (0 when the histogram is absent or the read failed).
	ServerP50Ms float64 `json:"server_p50_ms,omitempty"`
	ServerP99Ms float64 `json:"server_p99_ms,omitempty"`
}

// ClusterReport is the predload-cluster/v1 report document: the
// aggregate open-loop SLO report as measured through the router, the
// per-backend breakdown, the cluster lifecycle tallies, and the
// capacity verdict.
type ClusterReport struct {
	Schema string `json:"schema"`
	// Backends counts serving (non-standby) nodes.
	Backends  int     `json:"backends"`
	TargetRPS float64 `json:"target_req_per_sec"`
	// SLOP99Ms is the client-side p99 budget the verdict is judged
	// against.
	SLOP99Ms float64 `json:"slo_p99_ms"`
	// Holds is the capacity verdict; when false, Reason says why.
	Holds  bool   `json:"holds"`
	Reason string `json:"reason,omitempty"`

	Aggregate  Report          `json:"aggregate"`
	PerBackend []BackendReport `json:"per_backend"`

	// Lifecycle tallies from the router's status document after the run.
	Migrations int64 `json:"migrations"`
	Failovers  int64 `json:"failovers"`
	Lost       int64 `json:"lost_sessions,omitempty"`
}

// ClusterRunOptions configures a capacity-planning run against a live
// predroute router.
type ClusterRunOptions struct {
	// RouterURL is the predroute base URL.
	RouterURL string
	// Binary posts COHWIRE1 frames; false posts JSON.
	Binary bool
	// SLOP99Ms is the client-side p99 budget; <= 0 means
	// DefaultClusterSLOP99Ms.
	SLOP99Ms float64
}

// DefaultClusterSLOP99Ms is the default client-side p99 budget for the
// capacity verdict.
const DefaultClusterSLOP99Ms = 250.0

// RunCluster executes the plan open-loop against the router and
// assembles the predload-cluster/v1 report: Run's aggregate SLO
// measurements, the router's post-run status document, and a
// per-backend attribution read from each backend's /metrics JSON.
func RunCluster(plan *Plan, opts ClusterRunOptions) (*ClusterReport, error) {
	if opts.SLOP99Ms <= 0 {
		opts.SLOP99Ms = DefaultClusterSLOP99Ms
	}
	agg, err := Run(plan, RunOptions{BaseURL: opts.RouterURL, Binary: opts.Binary})
	if err != nil {
		return nil, err
	}
	st, err := fetchClusterStatus(opts.RouterURL)
	if err != nil {
		return nil, err
	}

	rep := &ClusterReport{
		Schema:     ClusterSchema,
		TargetRPS:  plan.Rate,
		SLOP99Ms:   opts.SLOP99Ms,
		Aggregate:  *agg,
		Migrations: st.Migrations,
		Failovers:  st.Failovers,
		Lost:       st.Lost,
	}
	for _, b := range st.Backends {
		snap := fetchMetrics(b.URL)
		row := BackendReport{
			URL: b.URL, Healthy: b.Healthy, Standby: b.Standby, Sessions: b.Sessions,
			Events:   snap.Counters["serve_events_total"],
			Requests: snap.Counters["serve_http_requests_total"],
		}
		row.ServerP50Ms, row.ServerP99Ms = serverQuantiles(snap, agg.Transport)
		rep.PerBackend = append(rep.PerBackend, row)
		if !b.Standby {
			rep.Backends++
		}
	}

	var reasons []string
	if agg.OK == 0 {
		reasons = append(reasons, "no request succeeded")
	}
	if agg.ClientP99Ms > opts.SLOP99Ms {
		reasons = append(reasons, fmt.Sprintf("client p99 %.2fms over the %.2fms budget", agg.ClientP99Ms, opts.SLOP99Ms))
	}
	if agg.Errors > 0 {
		reasons = append(reasons, fmt.Sprintf("%d hard request errors", agg.Errors))
	}
	if st.Lost > 0 {
		reasons = append(reasons, fmt.Sprintf("%d sessions lost", st.Lost))
	}
	if len(reasons) == 0 {
		rep.Holds = true
	} else {
		rep.Reason = joinProblems(reasons)
	}
	return rep, nil
}

// fetchClusterStatus GETs and strictly decodes the router's
// /v1/cluster document.
func fetchClusterStatus(routerURL string) (*cluster.ClusterStatus, error) {
	resp, err := http.Get(routerURL + "/v1/cluster")
	if err != nil {
		return nil, fmt.Errorf("traffic: fetching cluster status: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("traffic: reading cluster status: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("traffic: cluster status: %s: %s", resp.Status, body)
	}
	return cluster.DecodeClusterStatus(body)
}

// Validate checks a report against the predload-cluster/v1 schema
// rules (predload calls it before writing -out). The per-backend rules
// are deliberately laxer than the aggregate's: an idle or standby
// backend legitimately reports zero sessions, events, and latency.
func (r *ClusterReport) Validate() error {
	var problems []string
	if r.Schema != ClusterSchema {
		problems = append(problems, fmt.Sprintf("schema is %q, want %q", r.Schema, ClusterSchema))
	}
	if r.Backends <= 0 {
		problems = append(problems, "no serving backends recorded")
	}
	if r.SLOP99Ms <= 0 {
		problems = append(problems, "slo_p99_ms not positive")
	}
	if r.TargetRPS < 0 {
		problems = append(problems, "negative target rate")
	}
	if r.Holds && r.Reason != "" {
		problems = append(problems, "holding report carries a failure reason")
	}
	if !r.Holds && r.Reason == "" {
		problems = append(problems, "failing report gives no reason")
	}
	if err := r.Aggregate.Validate(); err != nil {
		problems = append(problems, fmt.Sprintf("aggregate: %v", err))
	}
	serving := 0
	urls := make(map[string]bool, len(r.PerBackend))
	for i, b := range r.PerBackend {
		if b.URL == "" {
			problems = append(problems, fmt.Sprintf("per_backend[%d] has no url", i))
			continue
		}
		if urls[b.URL] {
			problems = append(problems, fmt.Sprintf("backend %s listed twice", b.URL))
		}
		urls[b.URL] = true
		if !b.Standby {
			serving++
		}
		if b.Sessions < 0 || b.Events < 0 || b.Requests < 0 {
			problems = append(problems, fmt.Sprintf("backend %s has negative tallies", b.URL))
		}
		if b.ServerP50Ms < 0 || b.ServerP99Ms < 0 {
			problems = append(problems, fmt.Sprintf("backend %s has negative latency quantile", b.URL))
		}
		if b.ServerP50Ms > 0 && b.ServerP99Ms > 0 && b.ServerP50Ms > b.ServerP99Ms {
			problems = append(problems, fmt.Sprintf("backend %s p50 above p99", b.URL))
		}
	}
	if len(r.PerBackend) > 0 && serving != r.Backends {
		problems = append(problems, fmt.Sprintf("backends says %d serving nodes, per_backend lists %d", r.Backends, serving))
	}
	if r.Migrations < 0 || r.Failovers < 0 || r.Lost < 0 {
		problems = append(problems, "negative lifecycle tally")
	}
	if len(problems) > 0 {
		return fmt.Errorf("traffic: report fails %s: %s", ClusterSchema, joinProblems(problems))
	}
	return nil
}
