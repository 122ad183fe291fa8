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
