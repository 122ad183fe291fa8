package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"cohpredict/internal/machine"
)

// fingerprints pins every kernel's output at test scale, seed 42: FNV-1a
// over the COHPRED1 trace bytes followed by the machine.Stats printed with
// %+v. A reordered event, or a changed counter that leaves the predictor
// tables alone, changes the fingerprint even though TestTestScaleGolden
// (cmd/predsim) still passes.
var fingerprints = map[string]uint64{
	"barnes":   0x0ab09744f15244e2,
	"em3d":     0x82637b643cef72fc,
	"gauss":    0x30f73d58dde39ade,
	"mp3d":     0x27a96a551aef7639,
	"ocean":    0xb0048ddff1df090a,
	"unstruct": 0x8537be3ce07a0efc,
	"water":    0xcb16319940ed889d,
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
	serialize := func(b Benchmark, seed int64) ([]byte, machine.Stats) {
		m := machine.New(machine.DefaultConfig())
		b.Run(m, 16, seed)
		var buf bytes.Buffer
		if err := m.Finish().Write(&buf); err != nil {
			t.Fatalf("%s: serialize: %v", b.Name(), err)
		}
		return buf.Bytes(), m.Stats()
	}
	for _, b := range All(ScaleTest) {
		first, stats := serialize(b, 42)
		second, _ := serialize(b, 42)
		if !bytes.Equal(first, second) {
			t.Errorf("%s: same-seed runs serialized differently (%d vs %d bytes)",
				b.Name(), len(first), len(second))
		}
		h := fnv.New64a()
		h.Write(first)
		fmt.Fprintf(h, "%+v", stats)
		if got, want := h.Sum64(), fingerprints[b.Name()]; got != want {
			t.Errorf("%s: fingerprint %016x, pinned %016x", b.Name(), got, want)
		}
	}
}
