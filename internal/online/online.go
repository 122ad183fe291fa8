// Package online co-simulates a data-forwarding protocol *with* the
// machine, predictor in the loop. The post-hoc estimator (internal/forward)
// assumes every correctly addressed forward is useful; the paper is more
// careful: "In practice, only some of the forwarding would be successful:
// late forwarding is ineffective since the readers would go ahead and
// request the data on their own; early forwarding is useless when we
// mistakenly forward intermediate values before the final values ... are
// produced" (§3.3). This package measures exactly that decomposition.
//
// Sim wraps the machine as a sched.Memory-compatible middleware. It observes every
// prediction event the moment the directory emits it (future readers
// unknown — the online vantage point), consults a live prediction engine
// under direct or forwarded update, and schedules forwarded copies that
// arrive after a configurable per-hop delay measured in memory accesses (a
// proxy for time in our untimed simulator). When a predicted reader first
// touches the block during the epoch, the forward scores as on-time (the
// remote miss is eliminated) or late (the reader got there first); forwards
// still unclaimed when the block is rewritten were early/wasted — the
// writer gave up its permission for nothing (footnote 3's correctness rule
// is what makes over-forwarding safe but costly).
package online

import (
	"fmt"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/machine"
	"cohpredict/internal/topology"
	"cohpredict/internal/trace"
)

// Config parameterises the co-simulation.
type Config struct {
	// Scheme is the prediction scheme driving forwards. Ordered update
	// is rejected: it cannot exist online.
	Scheme core.Scheme
	// HopTicks is the forwarding network delay per torus hop, in memory
	// accesses (the co-simulation's clock). 0 means instantaneous.
	HopTicks uint64
}

// Result is the forwarding-outcome decomposition.
type Result struct {
	Scheme core.Scheme
	// OnTime counts forwards that arrived before the predicted reader's
	// first access of the epoch (remote miss eliminated).
	OnTime uint64
	// Late counts forwards whose target read before the copy arrived.
	Late uint64
	// Early counts forwards to true readers of a *previous* epoch whose
	// target never read again before the block was rewritten, plus
	// plain mispredictions: the copy was invalidated unused.
	Early uint64
	// UnservedMisses counts first-touch reads with no forward scheduled.
	UnservedMisses uint64
	// Forwards is the total forwarding traffic (OnTime+Late+Early).
	Forwards uint64
	// HopFlits is the hop-weighted forwarding cost.
	HopFlits uint64
}

// EffectiveYield is the fraction of forwarding traffic that eliminated a
// miss — the online counterpart of the predictor's PVP, always lower
// because late and early forwards spend bandwidth without saving latency.
func (r Result) EffectiveYield() float64 {
	if r.Forwards == 0 {
		return 0
	}
	return float64(r.OnTime) / float64(r.Forwards)
}

// EffectiveCoverage is the fraction of epoch-first reads served on time.
func (r Result) EffectiveCoverage() float64 {
	total := r.OnTime + r.Late + r.UnservedMisses
	if total == 0 {
		return 0
	}
	return float64(r.OnTime) / float64(total)
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("%s: on-time=%d late=%d early=%d unserved=%d yield=%.3f coverage=%.3f",
		r.Scheme.FullString(), r.OnTime, r.Late, r.Early, r.UnservedMisses,
		r.EffectiveYield(), r.EffectiveCoverage())
}

// pendingForward is a scheduled copy en route to (or parked at) a node.
type pendingForward struct {
	arrival uint64
}

// blockFwd is the per-block forwarding state for the current epoch.
type blockFwd struct {
	// pending maps target node → scheduled forward.
	pending map[int]pendingForward
	// touched tracks nodes that already made their epoch-first access.
	touched bitmap.Bitmap
	// writer owns the epoch; its accesses don't score.
	writer int
}

// Sim is the co-simulating memory middleware. Create with New, pass to a
// workload as its sched.Memory, then call Finish.
type Sim struct {
	inner  *machine.Machine
	engine *eval.Engine
	torus  *topology.Torus
	cfg    Config
	clock  uint64
	blocks map[uint64]*blockFwd
	res    Result
	line   uint64
}

// New builds a co-simulation around a fresh machine with the given
// configuration. It returns an error if the scheme uses ordered update
// (impossible online) or is invalid.
func New(mcfg machine.Config, cfg Config) (*Sim, error) {
	if cfg.Scheme.Update == core.Ordered {
		return nil, fmt.Errorf("online: ordered update cannot be simulated online")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("online: invalid scheme %s: %w", cfg.Scheme.FullString(), err)
	}
	inner := machine.New(mcfg)
	s := &Sim{
		inner:  inner,
		engine: eval.NewEngine(cfg.Scheme, core.Machine{Nodes: mcfg.Nodes, LineBytes: mcfg.LineBytes}),
		torus:  inner.Torus(),
		cfg:    cfg,
		blocks: make(map[uint64]*blockFwd),
		res:    Result{Scheme: cfg.Scheme},
		line:   uint64(mcfg.LineBytes),
	}
	inner.Directory().SetEventHook(s.onEvent)
	return s, nil
}

// onEvent fires when the directory emits a prediction event: settle the
// previous epoch's forwards and launch this epoch's.
func (s *Sim) onEvent(ev trace.Event) {
	bf := s.blocks[ev.Addr]
	if bf != nil {
		// Unclaimed forwards die with the epoch: early/wasted.
		s.res.Early += uint64(len(bf.pending))
	}
	// The engine both trains (per the scheme's update mechanism) and
	// predicts; FutureReaders are zero in hook-time events, which only
	// pessimises the engine's *scoring*, not its prediction (online
	// schemes never see the future anyway).
	pred := s.engine.Step(ev)
	bf = &blockFwd{writer: int(ev.PID), pending: make(map[int]pendingForward, pred.Count())}
	for _, dst := range pred.Nodes() {
		hops := uint64(s.torus.Hops(int(ev.Dir), dst))
		bf.pending[dst] = pendingForward{arrival: s.clock + hops*s.cfg.HopTicks}
		s.res.Forwards++
		s.res.HopFlits += hops
	}
	s.blocks[ev.Addr] = bf
}

// observe scores a node's epoch-first touch of a block.
func (s *Sim) observe(pid int, addr uint64) {
	bf := s.blocks[addr]
	if bf == nil || pid == bf.writer || bf.touched.Has(pid) {
		return
	}
	bf.touched = bf.touched.Set(pid)
	if fw, ok := bf.pending[pid]; ok {
		delete(bf.pending, pid)
		if fw.arrival <= s.clock {
			s.res.OnTime++
		} else {
			s.res.Late++
		}
	} else {
		s.res.UnservedMisses++
	}
}

// Load implements sched.Memory.
func (s *Sim) Load(pid int, pc, addr uint64) {
	s.clock++
	s.observe(pid, addr&^(s.line-1))
	s.inner.Load(pid, pc, addr)
}

// Store implements sched.Memory.
func (s *Sim) Store(pid int, pc, addr uint64) {
	s.clock++
	// The event hook fires inside this call when the store needs
	// exclusivity, settling and restarting the block's epoch.
	s.inner.Store(pid, pc, addr)
}

// Finish settles still-pending forwards (early/wasted), finalises the
// inner machine and returns the forwarding result plus the trace.
func (s *Sim) Finish() (Result, *trace.Trace) {
	tr := s.inner.Finish()
	for _, bf := range s.blocks {
		s.res.Early += uint64(len(bf.pending))
	}
	return s.res, tr
}
