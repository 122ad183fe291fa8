package traffic

// The load plan: everything an open-loop run will send, computed up
// front from the seed so the schedule itself is deterministic (only the
// measured latencies vary run to run). Sessions model the ROADMAP's
// "millions of users as millions of short-lived sessions" regime in
// miniature: each session draws a workload from the seeded event mix,
// simulates it on the paper's 16-node machine, and chops its coherence
// events into fixed-size requests; the arrival process then interleaves
// requests across sessions round-robin, so per-session request order is
// preserved while the global schedule follows the configured process.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"cohpredict/internal/machine"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// Generator defaults (the predload flag defaults mirror these).
const (
	DefaultRate          = 200 // requests/sec
	DefaultSessions      = 4
	DefaultSessionEvents = 4096
	DefaultBatch         = 64
	DefaultMix           = "em3d:1,ocean:1"
	DefaultScheme        = "union(dir+add8)2"
)

// MixEntry is one weighted workload in the event mix.
type MixEntry struct {
	Workload string
	Weight   float64
}

// ParseMix parses "em3d:1,ocean:2" into weighted entries (a bare name
// gets weight 1). Workload names are validated against the registry.
func ParseMix(s string) ([]MixEntry, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("traffic: empty event mix")
	}
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		name, ws, hasW := strings.Cut(strings.TrimSpace(part), ":")
		w := 1.0
		if hasW {
			var err error
			w, err = strconv.ParseFloat(ws, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("traffic: mix weight %q must be a positive number", ws)
			}
		}
		if _, err := workload.ByName(name, workload.ScaleTest); err != nil {
			return nil, err
		}
		mix = append(mix, MixEntry{Workload: name, Weight: w})
	}
	return mix, nil
}

// GenConfig parameterises BuildPlan. The zero value is not usable; fill
// the fields or use the predload defaults.
type GenConfig struct {
	Seed          int64
	Arrival       string        // poisson | bursty | diurnal
	Rate          float64       // requests per second
	Duration      time.Duration // schedule horizon
	Sessions      int           // concurrent short-lived sessions
	SessionEvents int           // session lifetime, in events
	Batch         int           // events per request
	Mix           []MixEntry    // weighted workload mix
	Scheme        string        // predictor scheme for every session
}

// PlanSession is one session the run will create.
type PlanSession struct {
	Scheme   string
	Nodes    int
	Workload string
}

// PlanRequest is one scheduled event post.
type PlanRequest struct {
	Session   int   // index into Plan.Sessions
	ArrivalNS int64 // virtual offset from the start of the run
	Events    []trace.Event
}

// Plan is a fully-materialized open-loop schedule; Requests are in
// arrival order, and each session's requests appear in its own order.
type Plan struct {
	Arrival  string
	Rate     float64
	Seed     int64
	Sessions []PlanSession
	Requests []PlanRequest
}

// Events counts the events across every scheduled request.
func (p *Plan) Events() int {
	n := 0
	for i := range p.Requests {
		n += len(p.Requests[i].Events)
	}
	return n
}

// pickWorkload draws one mix entry by weight.
func pickWorkload(rng *rand.Rand, mix []MixEntry) string {
	total := 0.0
	for _, m := range mix {
		total += m.Weight
	}
	x := rng.Float64() * total
	for _, m := range mix {
		x -= m.Weight
		if x < 0 {
			return m.Workload
		}
	}
	return mix[len(mix)-1].Workload
}

// sessionEvents simulates the named workload and cycles its trace to
// exactly n events. Per-workload base traces are cached in traces (one
// simulation per distinct name); per-session variety comes from a seeded
// rotation through the cached trace, so two sessions on the same
// workload still start at different epochs.
func sessionEvents(traces map[string]*trace.Trace, name string, seed int64, n int) ([]trace.Event, error) {
	tr := traces[name]
	if tr == nil {
		mach := machine.New(machine.DefaultConfig())
		b, err := workload.ByName(name, workload.ScaleTest)
		if err != nil {
			return nil, err
		}
		b.Run(mach, 16, seed)
		tr = mach.Finish()
		if len(tr.Events) == 0 {
			return nil, fmt.Errorf("traffic: workload %s produced no events", name)
		}
		traces[name] = tr
	}
	start := int(uint64(seed) % uint64(len(tr.Events)))
	out := make([]trace.Event, n)
	for i := 0; i < n; i++ {
		out[i] = tr.Events[(start+i)%len(tr.Events)]
	}
	return out, nil
}

// BuildPlan materializes the open-loop schedule: per-session workload
// draws and event streams, then one global arrival sequence assigned to
// session requests round-robin until the duration (or the work) runs
// out. Identical configs build identical plans.
func BuildPlan(cfg GenConfig) (*Plan, error) {
	if cfg.Sessions <= 0 || cfg.SessionEvents <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("traffic: sessions, session events, and batch must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("traffic: duration %v must be positive", cfg.Duration)
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("traffic: empty event mix")
	}
	arr, err := NewArrivals(cfg.Arrival, cfg.Rate, cfg.Seed)
	if err != nil {
		return nil, err
	}

	plan := &Plan{Arrival: cfg.Arrival, Rate: cfg.Rate, Seed: cfg.Seed}
	rng := rand.New(rand.NewSource(cfg.Seed))
	traces := make(map[string]*trace.Trace)
	batches := make([][][]trace.Event, cfg.Sessions) // per session, per request
	for i := 0; i < cfg.Sessions; i++ {
		name := pickWorkload(rng, cfg.Mix)
		plan.Sessions = append(plan.Sessions, PlanSession{
			Scheme:   cfg.Scheme,
			Nodes:    16,
			Workload: name,
		})
		evs, err := sessionEvents(traces, name, cfg.Seed+int64(i), cfg.SessionEvents)
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(evs); lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > len(evs) {
				hi = len(evs)
			}
			batches[i] = append(batches[i], evs[lo:hi])
		}
	}

	next := make([]int, cfg.Sessions) // per-session cursor
	remaining := 0
	for _, b := range batches {
		remaining += len(b)
	}
	horizon := cfg.Duration.Nanoseconds()
	for s := 0; remaining > 0; s = (s + 1) % cfg.Sessions {
		if next[s] >= len(batches[s]) {
			continue
		}
		at := arr.Next()
		if at > horizon {
			break
		}
		plan.Requests = append(plan.Requests, PlanRequest{
			Session:   s,
			ArrivalNS: at,
			Events:    batches[s][next[s]],
		})
		next[s]++
		remaining--
	}
	if len(plan.Requests) == 0 {
		return nil, fmt.Errorf("traffic: schedule is empty (rate %v over %v produced no arrivals)", cfg.Rate, cfg.Duration)
	}
	return plan, nil
}
