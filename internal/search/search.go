// Package search evaluates large sets of prediction schemes over event
// traces efficiently — the machinery behind the paper's design-space study
// (§5.4). Schemes are grouped by (index spec, update mode): all last/union/
// inter schemes over the same index share one history table (a depth-4
// window serves every depth), and every group keys and trains its tables
// per event exactly as eval.Apply does. Evaluation fans out over the
// (trace × index) grid on a bounded worker pool: every cell of the grid
// owns independent predictor state and a disjoint set of result cells, so
// the merged []Stats is bit-identical whatever the worker count or
// scheduling — a cross-check test asserts equality with the serial path
// and with eval.Engine.
package search

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/metrics"
	"cohpredict/internal/obs"
	"cohpredict/internal/trace"
)

// NamedTrace pairs a benchmark name with its coherence-event trace.
type NamedTrace struct {
	Name  string
	Trace *trace.Trace
}

// Stats is the evaluation result of one scheme: per-benchmark confusion
// tallies plus the paper's cross-benchmark arithmetic averages.
type Stats struct {
	Scheme   core.Scheme
	SizeLog2 int
	Bench    []string
	PerBench []metrics.Confusion
}

func (s Stats) avg(f func(metrics.Confusion) float64) float64 {
	return metrics.Mean(s.PerBench, f)
}

// AvgPrevalence is the cross-benchmark mean prevalence.
func (s Stats) AvgPrevalence() float64 {
	return s.avg(metrics.Confusion.Prevalence)
}

// AvgSensitivity is the cross-benchmark mean sensitivity.
func (s Stats) AvgSensitivity() float64 {
	return s.avg(metrics.Confusion.Sensitivity)
}

// AvgPVP is the cross-benchmark mean PVP.
func (s Stats) AvgPVP() float64 {
	return s.avg(metrics.Confusion.PVP)
}

// groupPlan is the trace-independent classification of the schemes sharing
// one (index spec, update mode): which schemes read the shared history
// table, which the per-depth PAs tables, and which the sticky table.
// Plans are built once per sweep and instantiated afresh (groupState) for
// every trace, so predictor state still resets per trace.
type groupPlan struct {
	update core.UpdateMode

	// histSchemes are last/union/inter schemes sharing one history
	// table; pasSchemes read the PAs table of their depth; sticky
	// schemes share one sticky-spatial table.
	histSchemes   []int // indices into the schemes slice
	pasSchemes    []int
	stickySchemes []int
}

// indexPlan bundles the groups that share one index spec — the unit of
// parallel work (one task per trace × indexPlan).
type indexPlan struct {
	index  core.IndexSpec
	groups []*groupPlan
}

// buildPlans classifies the schemes once — group membership is
// trace-independent, so the classification is hoisted out of the per-trace
// loop and shared by every worker.
func buildPlans(schemes []core.Scheme) []*indexPlan {
	byIndex := make(map[core.IndexSpec]*indexPlan)
	var plans []*indexPlan
	type groupKey struct {
		index  core.IndexSpec
		update core.UpdateMode
	}
	byGroup := make(map[groupKey]*groupPlan)
	for i, s := range schemes {
		ip, ok := byIndex[s.Index]
		if !ok {
			ip = &indexPlan{index: s.Index}
			byIndex[s.Index] = ip
			plans = append(plans, ip)
		}
		gk := groupKey{s.Index, s.Update}
		g, ok := byGroup[gk]
		if !ok {
			g = &groupPlan{update: s.Update}
			byGroup[gk] = g
			ip.groups = append(ip.groups, g)
		}
		switch s.Fn {
		case core.PAs:
			g.pasSchemes = append(g.pasSchemes, i)
		case core.Sticky:
			g.stickySchemes = append(g.stickySchemes, i)
		case core.Last, core.Union, core.Inter:
			g.histSchemes = append(g.histSchemes, i)
		}
	}
	return plans
}

// sweepObs bundles the engine's metric handles, resolved once per
// evaluation so workers record through plain atomics. A nil *sweepObs (no
// registry) makes every record a no-op; either way nothing is counted per
// event — workers accumulate locally and publish once per (trace × index)
// task, keeping the per-event loop untouched.
type sweepObs struct {
	events        *obs.Counter   // sweep_events_total: events scanned (per group pass)
	cells         *obs.Counter   // sweep_cells_total: (trace × index) grid cells completed
	histEntries   *obs.Gauge     // sweep_hist_entries: history-table entries allocated
	pasEntries    *obs.Gauge     // sweep_pas_entries: PAs-table entries allocated
	stickyEntries *obs.Gauge     // sweep_sticky_entries: sticky-table entries allocated
	taskSeconds   *obs.Histogram // sweep_task_seconds: per-cell wall time
}

func newSweepObs(r *obs.Registry) *sweepObs {
	if r == nil {
		return nil
	}
	return &sweepObs{
		events:        r.Counter("sweep_events_total"),
		cells:         r.Counter("sweep_cells_total"),
		histEntries:   r.Gauge("sweep_hist_entries"),
		pasEntries:    r.Gauge("sweep_pas_entries"),
		stickyEntries: r.Gauge("sweep_sticky_entries"),
		taskSeconds:   r.Histogram("sweep_task_seconds", obs.DurationBuckets),
	}
}

// taskDone publishes one completed grid cell's tallies.
func (so *sweepObs) taskDone(events, hist, pas, sticky int, d time.Duration) {
	if so == nil {
		return
	}
	so.events.Add(int64(events))
	so.cells.Add(1)
	so.histEntries.Add(float64(hist))
	so.pasEntries.Add(float64(pas))
	so.stickyEntries.Add(float64(sticky))
	so.taskSeconds.Observe(d.Seconds())
}

// groupState is one group's predictor state for one trace: the mutable
// realisation of a groupPlan, owned by exactly one worker at a time. It
// is held in core's tables: one history table whose entry serves every
// last/union/inter scheme of the group at every depth, one PAs table per
// depth, and one sticky table.
type groupState struct {
	plan   *groupPlan
	keyer  core.Keyer
	hist   *core.FlatTable
	pas    [core.MaxDepth + 1]*core.FlatTable // by depth
	sticky *core.FlatTable
}

func newGroupState(ip *indexPlan, g *groupPlan, schemes []core.Scheme, m core.Machine) *groupState {
	gs := &groupState{plan: g, keyer: ip.index.Keyer(m)}
	if len(g.histSchemes) > 0 {
		gs.hist = core.NewTable(schemes[g.histSchemes[0]], m)
	}
	for _, si := range g.pasSchemes {
		if d := schemes[si].Depth; gs.pas[d] == nil {
			gs.pas[d] = core.NewTable(schemes[si], m)
		}
	}
	if len(g.stickySchemes) > 0 {
		gs.sticky = core.NewTable(schemes[g.stickySchemes[0]], m)
	}
	return gs
}

// EvaluateSchemesObserved evaluates every scheme over every trace and
// returns stats in the same order as the input schemes; an invalid scheme
// yields an error naming it. It runs on a pool of workers goroutines
// (workers <= 0 selects runtime.GOMAXPROCS(0)), and the result is
// bit-identical for every worker count: work fans out over the (trace ×
// index) grid, every cell owns independent predictor state, and each
// scheme's (benchmark) result cell is written by exactly one task.
// Engine metrics (events scanned, cells completed, table occupancy,
// per-worker busy time) land in reg; nil disables instrumentation
// entirely. Metrics never influence evaluation: the returned stats are
// byte-identical with any registry and any worker count.
func EvaluateSchemesObserved(schemes []core.Scheme, m core.Machine, traces []NamedTrace, workers int, reg *obs.Registry) ([]Stats, error) {
	stats := make([]Stats, len(schemes))
	names := make([]string, len(traces))
	for i, nt := range traces {
		names[i] = nt.Name
	}
	for i, s := range schemes {
		if err := s.ValidateOn(m); err != nil {
			return nil, fmt.Errorf("search: scheme %d (%s): %w", i, s.FullString(), err)
		}
		stats[i] = Stats{
			Scheme:   s,
			SizeLog2: s.SizeLog2(m),
			Bench:    names,
			PerBench: make([]metrics.Confusion, len(traces)),
		}
	}
	plans := buildPlans(schemes)

	type task struct {
		ti int
		ip *indexPlan
	}
	tasks := make([]task, 0, len(traces)*len(plans))
	for ti := range traces {
		for _, ip := range plans {
			tasks = append(tasks, task{ti, ip})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	so := newSweepObs(reg)
	reg.Gauge("sweep_workers").Set(float64(workers))

	// workerBusy resolves the per-worker busy-time counter; each worker
	// accumulates wall time locally per task and publishes with one
	// atomic add, so utilisation (busy ns vs. evaluation wall time) is
	// visible per worker without touching the per-event loop.
	workerBusy := func(w int) *obs.Counter {
		return reg.Counter(fmt.Sprintf("sweep_worker_%02d_busy_ns", w))
	}
	run := func(t task, busy *obs.Counter) {
		start := time.Now()
		runIndexTrace(t.ip, schemes, stats, t.ti, traces[t.ti].Trace, m, so)
		busy.Add(int64(time.Since(start)))
	}
	if workers <= 1 {
		busy := workerBusy(0)
		for _, t := range tasks {
			run(t, busy)
		}
		return stats, nil
	}
	ch := make(chan task)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			busy := workerBusy(w)
			for t := range ch {
				run(t, busy)
			}
		}(w)
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return stats, nil
}

// runIndexTrace evaluates every group of one index plan over one trace:
// the groups' confusion tallies land in the task-local conf slice
// (groups of one index cover disjoint schemes) before the single write
// into the shared stats. Observability tallies (events scanned, table
// occupancy) accumulate in task-local ints and publish once at the end.
//
//predlint:hotpath
func runIndexTrace(ip *indexPlan, schemes []core.Scheme, stats []Stats, ti int, tr *trace.Trace, m core.Machine, so *sweepObs) {
	start := time.Now()
	conf := make([]metrics.Confusion, len(schemes))
	var scanned, histN, pasN, stickyN int
	for _, g := range ip.groups {
		gs := newGroupState(ip, g, schemes, m)
		events := tr.Events
		for i := range events {
			gs.step(schemes, conf, &events[i], m.Nodes)
		}
		for _, group := range [3][]int{g.histSchemes, g.pasSchemes, g.stickySchemes} {
			for _, si := range group {
				stats[si].PerBench[ti] = conf[si]
			}
		}
		scanned += len(events)
		if gs.hist != nil {
			histN += gs.hist.Entries()
		}
		for _, t := range gs.pas {
			if t != nil {
				pasN += t.Entries()
			}
		}
		if gs.sticky != nil {
			stickyN += gs.sticky.Entries()
		}
	}
	so.taskDone(scanned, histN, pasN, stickyN, time.Since(start))
}

// step processes one event for the group: it trains every table as the
// update mechanism schedules (core.UpdateMode.Schedule, as eval.Apply
// does), then predicts and scores every scheme.
//
//predlint:hotpath
func (gs *groupState) step(schemes []core.Scheme, conf []metrics.Confusion, ev *trace.Event, nodes int) {
	g, k := gs.plan, &gs.keyer
	curKey := k.Key(ev.PID, ev.PC, ev.Dir, ev.Addr)
	training := g.update.Schedule(k.ReadsWriter(), ev.HasPrev, ev.InvReaders)
	switch training {
	case core.TrainCurrent:
		gs.train(curKey, ev.InvReaders)
	case core.TrainPrevious:
		gs.train(k.Key(ev.PrevPID, ev.PrevPC, ev.Dir, ev.Addr), ev.InvReaders)
	case core.NoTraining, core.TrainAfter:
	}

	// Predict and score every scheme in the group.
	if gs.hist != nil {
		h := gs.hist.History(curKey)
		for _, si := range g.histSchemes {
			s := &schemes[si]
			pred := h.Predict(s.Fn, s.Depth).Clear(int(ev.PID))
			conf[si].AddBitmaps(pred, ev.FutureReaders, nodes)
		}
	}
	for _, si := range g.pasSchemes {
		pred := gs.pas[schemes[si].Depth].Predict(curKey).Clear(int(ev.PID))
		conf[si].AddBitmaps(pred, ev.FutureReaders, nodes)
	}
	if gs.sticky != nil {
		pred := gs.sticky.Predict(curKey).Clear(int(ev.PID))
		for _, si := range g.stickySchemes {
			conf[si].AddBitmaps(pred, ev.FutureReaders, nodes)
		}
	}

	if training == core.TrainAfter {
		gs.train(curKey, ev.FutureReaders)
	}
}

// train feeds one feedback bitmap into every table of the group.
//
//predlint:hotpath
func (gs *groupState) train(key uint64, feedback bitmap.Bitmap) {
	if gs.hist != nil {
		gs.hist.Train(key, feedback)
	}
	for _, t := range gs.pas {
		if t != nil {
			t.Train(key, feedback)
		}
	}
	if gs.sticky != nil {
		gs.sticky.Train(key, feedback)
	}
}

// SortByPVP orders stats by descending average PVP (ties: higher
// sensitivity, then smaller size, then name).
func SortByPVP(stats []Stats) {
	sort.SliceStable(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		if ap, bp := a.AvgPVP(), b.AvgPVP(); ap != bp {
			return ap > bp
		}
		if as, bs := a.AvgSensitivity(), b.AvgSensitivity(); as != bs {
			return as > bs
		}
		if a.SizeLog2 != b.SizeLog2 {
			return a.SizeLog2 < b.SizeLog2
		}
		return a.Scheme.FullString() < b.Scheme.FullString()
	})
}

// SortBySensitivity orders stats by descending average sensitivity (ties:
// higher PVP, then smaller size, then name).
func SortBySensitivity(stats []Stats) {
	sort.SliceStable(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		if as, bs := a.AvgSensitivity(), b.AvgSensitivity(); as != bs {
			return as > bs
		}
		if ap, bp := a.AvgPVP(), b.AvgPVP(); ap != bp {
			return ap > bp
		}
		if a.SizeLog2 != b.SizeLog2 {
			return a.SizeLog2 < b.SizeLog2
		}
		return a.Scheme.FullString() < b.Scheme.FullString()
	})
}
