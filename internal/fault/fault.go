// Package fault is a seeded, deterministic fault injector for the
// prediction service. The paper's ordered-vs-forwarded comparison (§3.4)
// is at bottom a study of what late or lost feedback does to a live
// predictor; a production serving layer faces the same hazard from the
// network itself: a dropped batch or a killed process silently loses
// training updates and skews sensitivity/PVP exactly the way late
// forwarded updates do. This package makes those hazards injectable so
// they can be *tested* rather than assumed away.
//
// An Injector is a set of named fault points. Each point owns its own
// *rand.Rand derived from the injector seed and the point name, so
//
//   - every decision stream is replayable from the seed alone, and
//   - a point whose call count depends on timing cannot perturb the
//     decision streams of the other points.
//
// Decisions at a single point are deterministic when the point is driven
// sequentially — which is exactly how the chaos tests drive the service
// (a synchronous retrying client). Points are still mutex-guarded, so
// concurrent use is race-free; it merely interleaves the stream.
//
// All methods are nil-safe: a nil *Injector injects nothing, so hook
// sites need no build tags and no conditionals.
package fault

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"cohpredict/internal/obs"
)

// Config parameterises an injector. Rates are probabilities in [0,1];
// zero disables the corresponding fault class.
type Config struct {
	// Seed drives every decision; identical configs with identical call
	// sequences inject identical faults.
	Seed int64
	// Drop is the probability that a batch is rejected at queue
	// admission (the service maps it to a retryable 503).
	Drop float64
	// Delay is the probability that a delay point stalls; MaxDelay
	// bounds the injected stall (uniform in (0, MaxDelay]).
	Delay    float64
	MaxDelay time.Duration
	// Reset is the probability that a connection is torn down after the
	// request was fully processed but before the response is written —
	// the case idempotency keys exist for.
	Reset float64
	// Error is the probability of an injected 500 before any processing.
	Error float64
	// PanicAfter, when positive, makes the Nth call to a panic point
	// fire (once); it exercises the drain path's panic surfacing.
	PanicAfter int
}

// point is one named fault site: its own deterministic stream plus call
// counters for the once-only fault classes.
type point struct {
	mu    sync.Mutex
	rng   *rand.Rand //predlint:guardedby mu
	calls int        //predlint:guardedby mu
}

// Injector injects faults at named points. The zero of *Injector (nil)
// injects nothing. Its decisions are tallied only in the fault_* counters
// of the registry it was built with.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	points map[string]*point //predlint:guardedby mu

	cDrops, cDelays, cResets, cErrors, cPanics, cDelayNS *obs.Counter
}

// New builds an injector for cfg, registering its fault_* counters on
// reg (nil disables metrics, not injection).
func New(cfg Config, reg *obs.Registry) *Injector {
	return &Injector{
		cfg:      cfg,
		points:   make(map[string]*point),
		cDrops:   reg.Counter("fault_drops_total"),
		cDelays:  reg.Counter("fault_delays_total"),
		cResets:  reg.Counter("fault_resets_total"),
		cErrors:  reg.Counter("fault_errors_total"),
		cPanics:  reg.Counter("fault_panics_total"),
		cDelayNS: reg.Counter("fault_delay_ns_total"),
	}
}

// site returns the named point, deriving its seed from the injector seed
// and the point name so creation order is immaterial.
func (i *Injector) site(name string) *point {
	i.mu.Lock()
	defer i.mu.Unlock()
	p := i.points[name]
	if p == nil {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		p = &point{rng: rand.New(rand.NewSource(i.cfg.Seed ^ int64(h.Sum64())))}
		i.points[name] = p
	}
	return p
}

// draw returns a uniform float in [0,1) from the point's stream and the
// call ordinal (1-based). One draw per decision keeps streams aligned
// across fault classes with different rates.
func (p *point) draw() (float64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	return p.rng.Float64(), p.calls
}

// drawDelay returns a decision draw plus a duration draw.
func (p *point) drawDelay(max time.Duration) (float64, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	f := p.rng.Float64()
	d := time.Duration(p.rng.Int63n(int64(max))) + 1
	return f, d
}

// Drop decides whether to drop (reject) a batch at the named point.
func (i *Injector) Drop(site string) bool {
	if i == nil || i.cfg.Drop <= 0 {
		return false
	}
	f, _ := i.site(site).draw()
	if f >= i.cfg.Drop {
		return false
	}
	i.cDrops.Inc()
	return true
}

// Delay returns the stall to inject at the named point (0 = none). The
// duration is drawn even when the decision is "no" so the stream stays
// aligned regardless of the rate.
func (i *Injector) Delay(site string) time.Duration {
	if i == nil || i.cfg.Delay <= 0 || i.cfg.MaxDelay <= 0 {
		return 0
	}
	f, d := i.site(site).drawDelay(i.cfg.MaxDelay)
	if f >= i.cfg.Delay {
		return 0
	}
	i.cDelays.Inc()
	i.cDelayNS.Add(int64(d))
	return d
}

// Reset decides whether to tear down the connection after processing.
func (i *Injector) Reset(site string) bool {
	if i == nil || i.cfg.Reset <= 0 {
		return false
	}
	f, _ := i.site(site).draw()
	if f >= i.cfg.Reset {
		return false
	}
	i.cResets.Inc()
	return true
}

// ServerError decides whether to fail the request with an injected 500
// before any processing happens.
func (i *Injector) ServerError(site string) bool {
	if i == nil || i.cfg.Error <= 0 {
		return false
	}
	f, _ := i.site(site).draw()
	if f >= i.cfg.Error {
		return false
	}
	i.cErrors.Inc()
	return true
}

// PanicNow reports whether the named panic point fires on this call (the
// PanicAfter-th call, exactly once).
func (i *Injector) PanicNow(site string) bool {
	if i == nil || i.cfg.PanicAfter <= 0 {
		return false
	}
	_, n := i.site(site).draw()
	if n != i.cfg.PanicAfter {
		return false
	}
	i.cPanics.Inc()
	return true
}
