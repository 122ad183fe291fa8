package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"cohpredict/internal/machine"
)

// fingerprints pins every kernel's output at test scale, seed 42: FNV-1a
// over the COHPRED2 trace bytes followed by the machine.Stats printed with
// %+v. A reordered event, or a changed counter that leaves the predictor
// tables alone, changes the fingerprint even though TestTestScaleGolden
// (cmd/predsim) still passes.
var fingerprints = map[string]uint64{
	"barnes":   0x4aa3b3a636dc3fcd,
	"em3d":     0x8f1aea7084218d73,
	"gauss":    0x8321908ca82a7af1,
	"mp3d":     0xd0a22c4d98c1fc50,
	"ocean":    0x08b39f831f0c10a9,
	"unstruct": 0x7863e613d4dffa51,
	"water":    0x50ef4e15a5acf766,
}

// defaultFingerprints pins, with the recipe of fingerprints, the four
// kernels the benchmark harness simulates before it serves their traces,
// at default scale and seed 1. A simulator change that alters only what
// the larger inputs reach (more quanta, more lock contention, longer
// barrier phases) fails here, not at test scale.
var defaultFingerprints = map[string]uint64{
	"barnes": 0xd3cfdce57549dfd9,
	"em3d":   0xe5ce49efab718f58,
	"mp3d":   0x3db50dc18b6557dc,
	"ocean":  0xba210bb82e9e9c0b,
}

// fingerprint simulates b on 16 processors from seed and returns its
// COHPRED2 trace bytes and their fingerprint: FNV-1a over the bytes,
// then over the machine.Stats printed with %+v.
func fingerprint(t *testing.T, b Benchmark, seed int64) ([]byte, uint64) {
	t.Helper()
	m := machine.New(machine.DefaultConfig())
	b.Run(m, 16, seed)
	var buf bytes.Buffer
	if err := m.Finish().Write(&buf); err != nil {
		t.Fatalf("%s: serialize: %v", b.Name(), err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	fmt.Fprintf(h, "%+v", m.Stats())
	return buf.Bytes(), h.Sum64()
}

// TestSameSeedIdenticalTraces is the seed-audit regression test: every
// benchmark, run twice with the same seed, must serialize to byte-identical
// traces. All randomness in sched and workload flows through explicitly
// seeded *rand.Rand values (predlint's determinism check forbids the global
// source), so any divergence here means a new unseeded entropy source crept
// into the pipeline. Each trace and its statistics must also match the
// pinned fingerprint, so a change to the simulator that alters what it
// simulates fails here too.
func TestSameSeedIdenticalTraces(t *testing.T) {
	for _, b := range All(ScaleTest) {
		first, got := fingerprint(t, b, 42)
		second, _ := fingerprint(t, b, 42)
		if !bytes.Equal(first, second) {
			t.Errorf("%s: same-seed runs serialized differently (%d vs %d bytes)",
				b.Name(), len(first), len(second))
		}
		if want := fingerprints[b.Name()]; got != want {
			t.Errorf("%s: fingerprint %016x, pinned %016x", b.Name(), got, want)
		}
	}
}

// TestDefaultScaleFingerprints checks defaultFingerprints. The four
// simulations take about a second, so -short skips them.
func TestDefaultScaleFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale simulation in short mode")
	}
	for _, b := range All(ScaleDefault) {
		want, ok := defaultFingerprints[b.Name()]
		if !ok {
			continue
		}
		if _, got := fingerprint(t, b, 1); got != want {
			t.Errorf("%s: default-scale fingerprint %016x, pinned %016x", b.Name(), got, want)
		}
	}
}
