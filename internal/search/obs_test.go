package search

import (
	"reflect"
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/obs"
)

// TestEvaluateObservedMetrics: an explicit registry receives the engine's
// counters and occupancy gauges, the counts are worker-count-independent,
// and the stats are byte-identical with instrumentation on (registry),
// off (nil), and at any pool size.
func TestEvaluateObservedMetrics(t *testing.T) {
	traces := []NamedTrace{
		{Name: "a", Trace: randomTrace(16, 40, 3000, 21)},
		{Name: "b", Trace: randomTrace(16, 24, 2500, 22)},
	}
	schemes := QuickSpace(core.Direct).Schemes(m16)

	regSerial := obs.New()
	serial := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 1, regSerial))
	regPar := obs.New()
	parallel := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 4, regPar))
	plain := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 4, nil))

	if !reflect.DeepEqual(serial, parallel) || !reflect.DeepEqual(serial, plain) {
		t.Fatal("stats differ across registries/worker counts")
	}

	a, b := regSerial.Snapshot(), regPar.Snapshot()
	var events int64
	for _, nt := range traces {
		events += int64(len(nt.Trace.Events))
	}
	if a.Counters["sweep_events_total"] < events {
		t.Errorf("sweep_events_total = %d, want >= %d (every group scans every trace)",
			a.Counters["sweep_events_total"], events)
	}
	// Aggregate tallies are scheduling-independent even though per-worker
	// attribution is not.
	for _, name := range []string{"sweep_events_total", "sweep_cells_total"} {
		if a.Counters[name] != b.Counters[name] {
			t.Errorf("%s differs across worker counts: %d vs %d", name, a.Counters[name], b.Counters[name])
		}
	}
	for _, name := range []string{"sweep_hist_entries", "sweep_pas_entries"} {
		if a.Gauges[name] != b.Gauges[name] {
			t.Errorf("%s differs across worker counts: %v vs %v", name, a.Gauges[name], b.Gauges[name])
		}
	}
	if a.Gauges["sweep_hist_entries"] == 0 {
		t.Error("sweep_hist_entries = 0 after a sweep with history schemes")
	}
	if h, ok := a.Histograms["sweep_task_seconds"]; !ok || h.Count != a.Counters["sweep_cells_total"] {
		t.Errorf("sweep_task_seconds count = %+v, want one observation per cell (%d)",
			h, a.Counters["sweep_cells_total"])
	}
	if a.Gauges["sweep_workers"] != 1 || b.Gauges["sweep_workers"] != 4 {
		t.Errorf("sweep_workers gauges = %v, %v, want 1 and 4", a.Gauges["sweep_workers"], b.Gauges["sweep_workers"])
	}
	if a.Counters["sweep_worker_00_busy_ns"] == 0 {
		t.Error("serial run recorded no busy time for worker 0")
	}
}
