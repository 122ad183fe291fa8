// Package forward estimates what a data-forwarding protocol would gain
// from a prediction scheme. The paper deliberately evaluates prediction in
// isolation (§3.3: "an actual data forwarding protocol remains outside the
// scope of our work") but sketches the protocol it assumes: soon after a
// block is written, the directory pushes copies to the predicted readers;
// a forward is useful when the destination truly reads the block before
// the next write, wasted otherwise.
//
// This package implements that sketch as a post-hoc estimator over a
// coherence trace: it replays the trace, asks the prediction engine for a
// bitmap at every event, and accounts per-forward network cost (torus
// hops) and per-hit latency saved (a remote read miss that a forward
// eliminates saves RemoteLatency − LocalLatency cycles in the paper's
// Table 4 terms). It quantifies the bandwidth–latency trade-off the
// paper's summary discusses: sensitive schemes save more misses but
// inject more traffic.
package forward

import (
	"fmt"

	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/topology"
	"cohpredict/internal/trace"
)

// Config parameterises the estimator.
type Config struct {
	// Torus is the interconnect; home nodes inject forwards.
	Torus *topology.Torus
	// LocalLatency and RemoteLatency are the paper's Table 4 memory
	// latencies in cycles.
	LocalLatency  int
	RemoteLatency int
}

// DefaultConfig matches the paper's machine.
func DefaultConfig() Config {
	return Config{Torus: topology.Square(16), LocalLatency: 52, RemoteLatency: 133}
}

// Result aggregates the estimator's accounting.
type Result struct {
	Scheme core.Scheme

	// UsefulForwards reached a node that truly read the block during
	// the epoch; WastedForwards did not.
	UsefulForwards uint64
	WastedForwards uint64
	// MissesEliminated counts remote read misses avoided (one per
	// useful forward — the reader finds the block locally).
	MissesEliminated uint64
	// MissesRemaining counts true readers that received no forward.
	MissesRemaining uint64
	// ForwardHopFlits is the hop-weighted network cost of all forwards.
	ForwardHopFlits uint64
	// CyclesSaved estimates latency saved: each eliminated miss saves
	// the remote-local latency gap.
	CyclesSaved uint64
}

// Yield is the fraction of forwarding traffic that was useful — the
// protocol-level realisation of the predictor's PVP.
func (r Result) Yield() float64 {
	total := r.UsefulForwards + r.WastedForwards
	if total == 0 {
		return 0
	}
	return float64(r.UsefulForwards) / float64(total)
}

// Coverage is the fraction of true remote reads served by a forward — the
// protocol-level realisation of the predictor's sensitivity.
func (r Result) Coverage() float64 {
	total := r.MissesEliminated + r.MissesRemaining
	if total == 0 {
		return 0
	}
	return float64(r.MissesEliminated) / float64(total)
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("%s: useful=%d wasted=%d yield=%.3f coverage=%.3f hops=%d cycles-saved=%d",
		r.Scheme.FullString(), r.UsefulForwards, r.WastedForwards,
		r.Yield(), r.Coverage(), r.ForwardHopFlits, r.CyclesSaved)
}

// Estimate replays the trace under the scheme and returns the forwarding
// accounting. The machine geometry (node count, line size) comes from m.
func Estimate(s core.Scheme, m core.Machine, cfg Config, tr *trace.Trace) Result {
	if cfg.Torus == nil {
		cfg.Torus = topology.Square(m.Nodes)
	}
	eng := eval.NewEngine(s, m)
	res := Result{Scheme: s}
	gap := cfg.RemoteLatency - cfg.LocalLatency
	if gap < 0 {
		gap = 0
	}
	for i := range tr.Events {
		ev := tr.Events[i]
		pred := eng.Step(ev)
		truth := ev.FutureReaders
		useful := pred.Intersect(truth)
		wasted := pred.Minus(truth)
		res.UsefulForwards += uint64(useful.Count())
		res.WastedForwards += uint64(wasted.Count())
		res.MissesEliminated += uint64(useful.Count())
		res.MissesRemaining += uint64(truth.Minus(pred).Count())
		res.CyclesSaved += uint64(useful.Count() * gap)
		for _, dst := range pred.Nodes() {
			res.ForwardHopFlits += uint64(cfg.Torus.Hops(int(ev.Dir), dst))
		}
	}
	return res
}

// Compare runs the estimator for several schemes over the same trace,
// returning results in input order — the bandwidth–latency trade-off table
// of the quickstart example.
func Compare(schemes []core.Scheme, m core.Machine, cfg Config, tr *trace.Trace) []Result {
	out := make([]Result, len(schemes))
	for i, s := range schemes {
		out[i] = Estimate(s, m, cfg, tr)
	}
	return out
}
