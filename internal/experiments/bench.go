package experiments

import (
	"encoding/json"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/obs"
	"cohpredict/internal/search"
)

// SweepRecord is one machine-readable performance sample of a scheme
// evaluation: how many schemes were swept over how many trace events, how
// long it took, and the resulting throughput. predsim -benchjson emits
// these so the perf trajectory of the sweep engine can be tracked across
// changes.
type SweepRecord struct {
	// Label names the artifact the sweep served, e.g. "sweep/direct",
	// "table7", "figure6/ordered".
	Label string `json:"label"`
	// Schemes and Traces are the sweep dimensions; Events is the total
	// trace events scanned (summed over traces, counted once however
	// many schemes read them).
	Schemes int   `json:"schemes"`
	Traces  int   `json:"traces"`
	Events  int64 `json:"events"`
	// Workers is the configured pool bound (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// WallSeconds is the evaluation wall time; SchemeEventsPerSec is
	// Events × Schemes / WallSeconds — the engine's effective scan rate.
	WallSeconds        float64 `json:"wall_seconds"`
	SchemeEventsPerSec float64 `json:"scheme_events_per_sec"`

	// Run identity, so -benchjson records are self-describing and
	// comparable across machines and commits.
	Seed   int64  `json:"seed"`
	Scale  string `json:"scale"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// StartedAt is the evaluation start time in RFC3339 (UTC).
	StartedAt string `json:"started_at"`
}

// BenchReport is the -benchjson document: the run manifest plus every
// sweep record accumulated by the suite, in evaluation order.
type BenchReport struct {
	Manifest obs.Manifest  `json:"manifest"`
	Records  []SweepRecord `json:"records"`
}

// Evaluate runs the batch evaluator over the suite's traces on the
// configured worker pool, recording a SweepRecord under the given label —
// the public entry point for ad-hoc scheme evaluation (predsim -scheme).
func (s *Suite) Evaluate(label string, schemes []core.Scheme) ([]search.Stats, error) {
	return s.evaluate(label, schemes, s.NamedTraces())
}

// evaluate runs the batch evaluator on the suite's worker pool inside an
// "eval" span (nested under whichever artifact span is open) and records
// a SweepRecord for the run.
func (s *Suite) evaluate(label string, schemes []core.Scheme, traces []search.NamedTrace) ([]search.Stats, error) {
	defer s.span("eval")()
	start := time.Now()
	stats, err := search.EvaluateSchemesObserved(schemes, s.CM, traces, s.Config.Workers, s.obs)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	s.record(label, schemes, traces, start, wall)
	s.log.Debugf("evaluated %s: %d schemes x %d traces in %v",
		label, len(schemes), len(traces), wall.Round(time.Millisecond))
	return stats, nil
}

func (s *Suite) record(label string, schemes []core.Scheme, traces []search.NamedTrace, start time.Time, wall time.Duration) {
	var events int64
	for _, nt := range traces {
		events += int64(len(nt.Trace.Events))
	}
	rec := SweepRecord{
		Label:       label,
		Schemes:     len(schemes),
		Traces:      len(traces),
		Events:      events,
		Workers:     s.Config.Workers,
		WallSeconds: wall.Seconds(),
		Seed:        s.Config.Seed,
		Scale:       s.Config.Scale.String(),
		GOOS:        s.manifest.GOOS,
		GOARCH:      s.manifest.GOARCH,
		StartedAt:   start.UTC().Format(time.RFC3339),
	}
	if secs := wall.Seconds(); secs > 0 {
		rec.SchemeEventsPerSec = float64(events) * float64(len(schemes)) / secs
	}
	s.benchMu.Lock()
	s.benchRecs = append(s.benchRecs, rec)
	s.benchMu.Unlock()
}

// SweepRecords returns the performance records accumulated so far, in
// evaluation order.
func (s *Suite) SweepRecords() []SweepRecord {
	s.benchMu.Lock()
	defer s.benchMu.Unlock()
	return append([]SweepRecord(nil), s.benchRecs...)
}

// BenchJSON marshals the run manifest and the accumulated sweep records
// as indented JSON, ready for predsim -benchjson.
func (s *Suite) BenchJSON() ([]byte, error) {
	recs := s.SweepRecords()
	if recs == nil {
		recs = []SweepRecord{}
	}
	return json.MarshalIndent(BenchReport{Manifest: s.manifest, Records: recs}, "", "  ")
}
