package fault

import (
	"testing"
	"time"

	"cohpredict/internal/obs"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var inj *Injector
	if inj.Drop("x") || inj.Reset("x") || inj.ServerError("x") || inj.PanicNow("x") {
		t.Fatal("nil injector injected a fault")
	}
	if d := inj.Delay("x"); d != 0 {
		t.Fatalf("nil injector injected a %v delay", d)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	inj := New(Config{Seed: 42}, nil)
	for i := 0; i < 100; i++ {
		if inj.Drop("a") || inj.Reset("a") || inj.ServerError("a") ||
			inj.PanicNow("a") || inj.Delay("a") != 0 {
			t.Fatal("zero-rate injector injected a fault")
		}
	}
}

// drive records one site's decision stream across every fault class.
func drive(inj *Injector, site string, n int) []bool {
	out := make([]bool, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out, inj.Drop(site), inj.Delay(site) > 0, inj.Reset(site), inj.ServerError(site))
	}
	return out
}

func TestSameSeedSameDecisions(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.3, Delay: 0.25, MaxDelay: time.Millisecond, Reset: 0.2, Error: 0.1}
	a := drive(New(cfg, nil), "s", 500)
	b := drive(New(cfg, nil), "s", 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically-seeded injectors", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c := drive(New(cfg2, nil), "s", 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 2000-decision streams")
	}
}

// TestSiteIndependence is the property the per-site streams exist for: a
// site's decisions do not depend on how often other sites were consulted
// (shard delay draws vary with micro-batch coalescing; they must not
// perturb the HTTP layer's drop/reset decisions).
func TestSiteIndependence(t *testing.T) {
	cfg := Config{Seed: 11, Drop: 0.5, Delay: 0.5, MaxDelay: time.Millisecond}
	quiet := New(cfg, nil)
	ref := drive(quiet, "victim", 200)

	noisy := New(cfg, nil)
	for i := 0; i < 1000; i++ {
		noisy.Drop("other")
		noisy.Delay("noise")
	}
	got := drive(noisy, "victim", 200)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("decision %d at site \"victim\" changed because other sites were driven", i)
		}
	}
}

func TestRatesHonored(t *testing.T) {
	const n = 20000
	reg := obs.New()
	inj := New(Config{Seed: 3, Drop: 0.25}, reg)
	drops := 0
	for i := 0; i < n; i++ {
		if inj.Drop("r") {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("drop rate %.4f far from configured 0.25", got)
	}
	if got := reg.Counter("fault_drops_total").Value(); got != int64(drops) {
		t.Fatalf("fault_drops_total = %d, observed %d drops", got, drops)
	}
}

func TestDelayBoundedAndCounted(t *testing.T) {
	reg := obs.New()
	inj := New(Config{Seed: 5, Delay: 1.0, MaxDelay: 100 * time.Microsecond}, reg)
	var total time.Duration
	for i := 0; i < 1000; i++ {
		d := inj.Delay("d")
		if d <= 0 || d > 100*time.Microsecond {
			t.Fatalf("delay %v outside (0, 100µs]", d)
		}
		total += d
	}
	if got := reg.Counter("fault_delays_total").Value(); got != 1000 {
		t.Fatalf("fault_delays_total = %d, want 1000", got)
	}
	if got := reg.Counter("fault_delay_ns_total").Value(); got != int64(total) {
		t.Fatalf("fault_delay_ns_total = %d, observed %dns", got, total)
	}
}

func TestPanicFiresExactlyOnce(t *testing.T) {
	reg := obs.New()
	inj := New(Config{Seed: 1, PanicAfter: 3}, reg)
	var panics []int
	for i := 1; i <= 10; i++ {
		if inj.PanicNow("p") {
			panics = append(panics, i)
		}
	}
	if len(panics) != 1 || panics[0] != 3 {
		t.Fatalf("panic fired at calls %v, want exactly [3]", panics)
	}
	if got := reg.Counter("fault_panics_total").Value(); got != 1 {
		t.Fatalf("fault_panics_total = %d, want 1", got)
	}
}

func TestObsCountersPublished(t *testing.T) {
	reg := obs.New()
	inj := New(Config{Seed: 9, Drop: 1.0, Error: 1.0}, reg)
	for i := 0; i < 4; i++ {
		inj.Drop("a")
	}
	inj.ServerError("b")
	snap := reg.Snapshot()
	if got := snap.Counters["fault_drops_total"]; got != 4 {
		t.Fatalf("fault_drops_total = %d, want 4", got)
	}
	if got := snap.Counters["fault_errors_total"]; got != 1 {
		t.Fatalf("fault_errors_total = %d, want 1", got)
	}
}
