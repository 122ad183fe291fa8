package traffic

// Seeded open-loop arrival processes. Each generator yields a
// non-decreasing sequence of virtual arrival offsets (nanoseconds from
// the start of the run) from a seeded *rand.Rand and nothing else — no
// wall clock anywhere, so two generators with equal seeds emit
// byte-identical schedules and the statistical property tests run on
// virtual time alone. The runner maps virtual offsets onto real time at
// dispatch; the generator itself never sleeps.
//
// Three processes model the regimes the ROADMAP's "millions of users"
// target implies (grounded in inference-sim's workload/rate/seed CLI):
//
//   - poisson: memoryless arrivals at a constant rate — the steady-state
//     baseline. Inter-arrivals are Exp(rate).
//   - bursty: an on/off modulated Poisson process — exponential phases
//     alternate between a hot rate and a cold rate whose average is the
//     configured rate, so the long-run throughput matches poisson while
//     the short-run variance stresses queues and backpressure.
//   - diurnal: an inhomogeneous Poisson process whose rate swings
//     sinusoidally around the configured mean (a compressed day), thinned
//     Lewis–Shedler style so the schedule stays exact.

import (
	"fmt"
	"math"
	"math/rand"
)

// Arrival process names (the -arrival flag's vocabulary).
const (
	ArrivalPoisson = "poisson"
	ArrivalBursty  = "bursty"
	ArrivalDiurnal = "diurnal"
)

// Bursty/diurnal shape constants. Bursty alternates phases of hot and
// cold rate (mean phase length burstPhaseMeanNS); hot+cold average to
// the configured rate. Diurnal swings the rate by ±diurnalAmplitude
// around the mean over diurnalPeriodNS.
const (
	burstHotFactor   = 1.8
	burstColdFactor  = 0.2
	burstPhaseMeanNS = 50e6 // 50ms phases

	diurnalAmplitude = 0.5
	diurnalPeriodNS  = 10e9 // a 10s "day"
)

// Arrivals generates one seeded arrival schedule.
type Arrivals struct {
	kind string
	rate float64 // arrivals per second
	rng  *rand.Rand

	now      float64 // current virtual time, ns
	phaseEnd float64 // bursty: end of the current phase, ns
	phaseHot bool    // bursty: current phase is the hot one
}

// NewArrivals builds a generator for the named process at rate arrivals
// per second. Equal (kind, rate, seed) triples generate identical
// schedules.
func NewArrivals(kind string, rate float64, seed int64) (*Arrivals, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: arrival rate %v must be positive", rate)
	}
	switch kind {
	case ArrivalPoisson, ArrivalBursty, ArrivalDiurnal:
	default:
		return nil, fmt.Errorf("traffic: unknown arrival process %q (want %s, %s, or %s)",
			kind, ArrivalPoisson, ArrivalBursty, ArrivalDiurnal)
	}
	return &Arrivals{kind: kind, rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// exp draws an exponential inter-arrival (ns) at ratePerNS.
func (a *Arrivals) exp(ratePerNS float64) float64 {
	return a.rng.ExpFloat64() / ratePerNS
}

// Next returns the next arrival offset in nanoseconds from the start of
// the schedule. Offsets never decrease.
func (a *Arrivals) Next() int64 {
	perNS := a.rate / 1e9
	switch a.kind {
	case ArrivalBursty:
		a.nextBursty(perNS)
	case ArrivalDiurnal:
		a.nextDiurnal(perNS)
	default: // poisson
		a.now += a.exp(perNS)
	}
	return int64(a.now)
}

// nextBursty advances through the on/off modulated process. Phases have
// exponential lengths; within a phase arrivals are Poisson at the
// phase's rate, and by memorylessness an inter-arrival that crosses the
// phase boundary restarts cleanly at the boundary under the new rate.
func (a *Arrivals) nextBursty(perNS float64) {
	for {
		if a.now >= a.phaseEnd {
			a.phaseHot = !a.phaseHot
			a.phaseEnd = a.now + a.exp(1/burstPhaseMeanNS)
		}
		r := perNS * burstColdFactor
		if a.phaseHot {
			r = perNS * burstHotFactor
		}
		t := a.now + a.exp(r)
		if t <= a.phaseEnd {
			a.now = t
			return
		}
		a.now = a.phaseEnd
	}
}

// nextDiurnal thins a homogeneous process at the peak rate down to the
// sinusoidal profile (Lewis–Shedler): candidate arrivals at
// rate·(1+amplitude) are accepted with probability λ(t)/λmax.
func (a *Arrivals) nextDiurnal(perNS float64) {
	peak := perNS * (1 + diurnalAmplitude)
	for {
		a.now += a.exp(peak)
		lambda := perNS * (1 + diurnalAmplitude*math.Sin(2*math.Pi*a.now/diurnalPeriodNS))
		if a.rng.Float64()*peak <= lambda {
			return
		}
	}
}
