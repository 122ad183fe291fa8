package eval

import (
	"math/rand"
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

func TestMemoKeysMatchesIndexSpecKey(t *testing.T) {
	m := core.Machine{Nodes: 16, LineBytes: 64}
	rng := rand.New(rand.NewSource(5))
	events := make([]trace.Event, 500)
	for i := range events {
		events[i] = trace.Event{
			PID:  uint8(rng.Intn(16)),
			PC:   uint64(rng.Intn(4096)),
			Dir:  uint8(rng.Intn(16)),
			Addr: uint64(rng.Intn(1<<20)) * 64,
		}
		if rng.Intn(2) == 0 {
			events[i].HasPrev = true
			events[i].PrevPID = uint8(rng.Intn(16))
			events[i].PrevPC = uint64(rng.Intn(4096))
		}
	}
	specs := []core.IndexSpec{
		{},
		{UsePID: true, PCBits: 8},
		{UseDir: true, AddrBits: 12},
		{UsePID: true, PCBits: 4, UseDir: true, AddrBits: 6},
	}
	for _, idx := range specs {
		km := MemoKeys(idx, events, m, true)
		k := idx.Keyer(m)
		if len(km.Cur) != len(events) || len(km.Prev) != len(events) {
			t.Fatalf("%v: lengths %d/%d", idx, len(km.Cur), len(km.Prev))
		}
		for i, ev := range events {
			if want := k.Key(ev.PID, ev.PC, ev.Dir, ev.Addr); km.Cur[i] != want {
				t.Fatalf("%v: Cur[%d] = %d, want %d", idx, i, km.Cur[i], want)
			}
			if ev.HasPrev {
				if want := k.Key(ev.PrevPID, ev.PrevPC, ev.Dir, ev.Addr); km.Prev[i] != want {
					t.Fatalf("%v: Prev[%d] = %d, want %d", idx, i, km.Prev[i], want)
				}
			}
		}
	}
}

func TestMemoKeysSkipsPrevUnlessRequested(t *testing.T) {
	m := core.Machine{Nodes: 16, LineBytes: 64}
	events := []trace.Event{{PID: 1, PC: 32, HasPrev: true, PrevPID: 2, PrevPC: 48}}
	km := MemoKeys(core.IndexSpec{UsePID: true}, events, m, false)
	if km.Prev != nil {
		t.Fatal("Prev computed without request")
	}
}
