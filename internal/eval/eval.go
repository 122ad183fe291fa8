// Package eval drives prediction schemes over coherence-event traces,
// applying the taxonomy's update mechanisms with their exact timing
// semantics (paper §3.4):
//
//   - direct: at each event, the invalidated-reader bitmap trains the
//     current writer's entry before the prediction is read, so the freshest
//     block history is always available (and every depth-1 last scheme
//     degenerates to the zero-cost baseline, as in the paper's Table 7);
//   - forwarded: the invalidated readers train the previous writer's entry
//     (identified by the last-writer pid/pc the directory records per
//     block); the Figure 4 lateness hazard arises naturally from trace
//     order;
//   - ordered: an oracle — the prediction is read first, then the event's
//     own resolved future readers train the current entry, so every entry
//     sees the complete reader sets of all its earlier predictions.
//
// Predictions are scored bit-per-bit against each event's true future
// readers over all nodes of the machine (prevalence, sensitivity, PVP).
package eval

import (
	"sync"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/metrics"
	"cohpredict/internal/obs"
	"cohpredict/internal/trace"
)

// Engine metrics live in the default obs registry; the handles are
// resolved once per process and shared by every engine (atomic adds only
// on the step path).
var (
	engineObsOnce   sync.Once
	enginePredTotal *obs.Counter // eval_predictions_total: Step calls
	engineConfTotal *obs.Counter // eval_confusion_updates_total: per-node decisions scored
)

func engineCounters() (pred, conf *obs.Counter) {
	engineObsOnce.Do(func() {
		r := obs.Default()
		enginePredTotal = r.Counter("eval_predictions_total")
		engineConfTotal = r.Counter("eval_confusion_updates_total")
	})
	return enginePredTotal, engineConfTotal
}

// Engine evaluates a single scheme over an event stream.
type Engine struct {
	scheme  core.Scheme
	machine core.Machine
	keyer   core.Keyer
	table   *core.FlatTable
	conf    metrics.Confusion

	predCtr *obs.Counter
	confCtr *obs.Counter
}

// NewEngine returns an engine for the scheme on the given machine. It
// panics if the scheme is invalid or its index does not fit a key on m.
func NewEngine(s core.Scheme, m core.Machine) *Engine {
	e := &Engine{scheme: s, machine: m, keyer: s.Index.Keyer(m), table: core.NewTable(s, m)}
	e.predCtr, e.confCtr = engineCounters()
	return e
}

// Step processes one event: trains per the update mechanism, predicts, and
// scores the prediction. It returns the (writer-masked) predicted bitmap.
// The train/predict semantics live in Apply; Step adds the scoring.
//
//predlint:hotpath
func (e *Engine) Step(ev trace.Event) bitmap.Bitmap {
	pred := Apply(e.scheme.Update, &e.keyer, e.table, &ev)
	e.conf.AddBitmaps(pred, ev.FutureReaders, e.machine.Nodes)
	e.predCtr.Add(1)
	e.confCtr.Add(int64(e.machine.Nodes))
	return pred
}

// Run processes a whole trace.
func (e *Engine) Run(t *trace.Trace) {
	for i := range t.Events {
		e.Step(t.Events[i])
	}
}

// Confusion returns the accumulated decision tallies.
func (e *Engine) Confusion() metrics.Confusion { return e.conf }

// Result pairs a scheme with its measured statistics.
type Result struct {
	Scheme    core.Scheme
	Confusion metrics.Confusion
	SizeLog2  int
}

// Evaluate runs one scheme over a trace and returns its result.
func Evaluate(s core.Scheme, m core.Machine, t *trace.Trace) Result {
	eng := NewEngine(s, m)
	eng.Run(t)
	return Result{Scheme: s, Confusion: eng.Confusion(), SizeLog2: s.SizeLog2(m)}
}
