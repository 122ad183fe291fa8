package traffic

// The open-loop runner: requests dispatch at their scheduled arrival
// times regardless of whether earlier responses have come back — the
// property that distinguishes a production arrival process from the
// repo's closed-loop test traffic, and the reason overload shows up here
// as rising latency and 429s instead of a politely slowed client. Each
// request runs in its own goroutine; results funnel into a
// mutex-guarded tally and distill into the predload-slo/v1 report.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cohpredict/internal/client"
	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// SLOSchema identifies the predload report document.
const SLOSchema = "predload-slo/v1"

// Report is the SLO summary of one open-loop run — the
// predload-slo/v1 report document.
type Report struct {
	Schema    string  `json:"schema"`
	Arrival   string  `json:"arrival"`
	Transport string  `json:"transport"`
	Seed      int64   `json:"seed"`
	TargetRPS float64 `json:"target_req_per_sec"`

	DurationSec float64 `json:"duration_sec"`
	Sessions    int     `json:"sessions"`
	Requests    int     `json:"requests"`
	OK          int     `json:"ok_requests"`
	Events      int     `json:"events"`

	EventsPerSec float64 `json:"events_per_sec"`
	ReqPerSec    float64 `json:"req_per_sec"`

	// Client-side request latency over successful posts.
	ClientP50Ms float64 `json:"client_p50_ms"`
	ClientP99Ms float64 `json:"client_p99_ms"`
	// Server-side request latency from the flight recorder's
	// serve_request_seconds histograms, read from the server's /metrics
	// JSON (0 when unavailable).
	ServerP50Ms float64 `json:"server_p50_ms,omitempty"`
	ServerP99Ms float64 `json:"server_p99_ms,omitempty"`

	Status429 int     `json:"status_429"`
	Status503 int     `json:"status_503"`
	Errors    int     `json:"errors"`
	Rate429   float64 `json:"rate_429"`
	Rate503   float64 `json:"rate_503"`
}

// RunOptions configures an open-loop run against a live server.
type RunOptions struct {
	// BaseURL is the target server root.
	BaseURL string
	// Binary posts COHWIRE1 frames; false posts JSON.
	Binary bool
}

// reqResult is one dispatched request's outcome.
type reqResult struct {
	ok        bool
	status    int
	latencyNS int64
	events    int
}

// Run executes the plan open-loop and returns its SLO report. Sessions
// are created up front (session creation is control traffic, not load);
// each scheduled request then fires at its arrival offset without
// waiting for any other, with retries disabled — in an open-loop
// measurement a rejected request is a data point, not a thing to hide.
func Run(plan *Plan, opts RunOptions) (*Report, error) {
	c := client.New(client.Options{
		BaseURL:    opts.BaseURL,
		Seed:       plan.Seed,
		MaxRetries: -1,
		Binary:     opts.Binary,
	})
	ids := make([]string, len(plan.Sessions))
	for i, ps := range plan.Sessions {
		resp, err := c.CreateSession(serve.CreateSessionRequest{
			Scheme: ps.Scheme,
			Nodes:  ps.Nodes,
		})
		if err != nil {
			return nil, fmt.Errorf("traffic: creating session %d: %w", i, err)
		}
		ids[i] = resp.ID
	}

	// results is guarded by mu: every dispatched goroutine appends its
	// outcome under the lock, and the post-Wait reads happen after every
	// append by the WaitGroup edge.
	var (
		mu      sync.Mutex
		results []reqResult
		wg      sync.WaitGroup
	)
	results = make([]reqResult, 0, len(plan.Requests))
	start := flight.Nanos()
	for i := range plan.Requests {
		req := &plan.Requests[i]
		if wait := req.ArrivalNS - (flight.Nanos() - start); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := flight.Nanos()
			_, err := c.PostEvents(ids[req.Session], req.Events)
			lat := flight.Nanos() - t0
			res := reqResult{ok: err == nil, latencyNS: lat, events: len(req.Events)}
			var ae *client.APIError
			if errors.As(err, &ae) {
				res.status = ae.Status
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := flight.Nanos() - start

	transport := "json"
	if opts.Binary {
		transport = "cohwire"
	}
	rep := &Report{
		Schema:      SLOSchema,
		Arrival:     plan.Arrival,
		Transport:   transport,
		Seed:        plan.Seed,
		TargetRPS:   plan.Rate,
		DurationSec: float64(elapsed) / 1e9,
		Sessions:    len(plan.Sessions),
		Requests:    len(results),
	}
	var lats []int64
	for _, r := range results {
		switch {
		case r.ok:
			rep.OK++
			rep.Events += r.events
			lats = append(lats, r.latencyNS)
		case r.status == http.StatusTooManyRequests:
			rep.Status429++
		case r.status == http.StatusServiceUnavailable:
			rep.Status503++
		default:
			rep.Errors++
		}
	}
	if rep.DurationSec > 0 {
		rep.EventsPerSec = float64(rep.Events) / rep.DurationSec
		rep.ReqPerSec = float64(rep.OK) / rep.DurationSec
	}
	if n := len(results); n > 0 {
		rep.Rate429 = float64(rep.Status429) / float64(n)
		rep.Rate503 = float64(rep.Status503) / float64(n)
	}
	rep.ClientP50Ms = quantileMs(lats, 0.50)
	rep.ClientP99Ms = quantileMs(lats, 0.99)
	rep.ServerP50Ms, rep.ServerP99Ms = serverQuantiles(fetchMetrics(opts.BaseURL), rep.Transport)
	return rep, nil
}

// quantileMs reads the q-th quantile of the latency sample, in
// milliseconds (0 for an empty sample).
func quantileMs(lats []int64, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(q * float64(len(lats)-1))
	return float64(lats[idx]) / 1e6
}

// fetchMetrics GETs a /metrics endpoint, predserve's or predroute's, in
// its JSON form. Best-effort: any failure yields an empty snapshot, whose
// counters and quantiles read as zero. predroute's snapshot carries no
// serve_* histograms, so the server quantiles of a run against the
// router read as zero too.
func fetchMetrics(baseURL string) obs.Snapshot {
	var snap obs.Snapshot
	req, err := http.NewRequest(http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return snap
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&snap) != nil {
		return obs.Snapshot{}
	}
	return snap
}

// serverQuantiles reads p50/p99, in milliseconds, from the server's
// flight histogram for the transport the run used (zeros when the
// snapshot lacks it).
func serverQuantiles(snap obs.Snapshot, transport string) (p50, p99 float64) {
	t := flight.TransportJSON
	if transport == "cohwire" {
		t = flight.TransportWire
	}
	h := snap.Histograms["serve_request_seconds_"+flight.RouteEvents+"_"+t]
	return h.Quantile(0.50) * 1000, h.Quantile(0.99) * 1000
}

// Validate checks a report against the predload-slo/v1 schema rules
// (predload calls it before writing -out).
func (r *Report) Validate() error {
	var problems []string
	if r.Schema != SLOSchema {
		problems = append(problems, fmt.Sprintf("schema is %q, want %q", r.Schema, SLOSchema))
	}
	switch r.Arrival {
	case ArrivalPoisson, ArrivalBursty, ArrivalDiurnal, "replay":
	default:
		problems = append(problems, fmt.Sprintf("unknown arrival process %q", r.Arrival))
	}
	if r.Transport != "json" && r.Transport != "cohwire" {
		problems = append(problems, fmt.Sprintf("unknown transport %q", r.Transport))
	}
	if r.DurationSec <= 0 {
		problems = append(problems, "duration not positive")
	}
	if r.Requests <= 0 || r.Sessions <= 0 {
		problems = append(problems, "no requests or sessions recorded")
	}
	if r.OK < 0 || r.OK > r.Requests {
		problems = append(problems, "ok_requests outside [0, requests]")
	}
	if r.Events < 0 || r.EventsPerSec < 0 || r.ReqPerSec < 0 || r.TargetRPS < 0 {
		problems = append(problems, "negative rate or count")
	}
	if r.ClientP50Ms < 0 || r.ClientP99Ms < 0 || r.ServerP50Ms < 0 || r.ServerP99Ms < 0 {
		problems = append(problems, "negative latency quantile")
	}
	if r.ClientP50Ms > r.ClientP99Ms {
		problems = append(problems, fmt.Sprintf("client p50 %.3fms above p99 %.3fms", r.ClientP50Ms, r.ClientP99Ms))
	}
	if r.ServerP50Ms > 0 && r.ServerP99Ms > 0 && r.ServerP50Ms > r.ServerP99Ms {
		problems = append(problems, fmt.Sprintf("server p50 %.3fms above p99 %.3fms", r.ServerP50Ms, r.ServerP99Ms))
	}
	if r.Status429 < 0 || r.Status503 < 0 || r.Errors < 0 ||
		r.Rate429 < 0 || r.Rate429 > 1 || r.Rate503 < 0 || r.Rate503 > 1 {
		problems = append(problems, "error tallies out of range")
	}
	if len(problems) > 0 {
		return fmt.Errorf("traffic: report fails %s: %s", SLOSchema, joinProblems(problems))
	}
	return nil
}

func joinProblems(ps []string) string {
	out := ps[0]
	for _, p := range ps[1:] {
		out += "; " + p
	}
	return out
}
