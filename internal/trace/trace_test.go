package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cohpredict/internal/bitmap"
)

func sampleTrace() *Trace {
	return &Trace{
		Nodes: 16,
		Events: []Event{
			{PID: 3, PC: 42, Dir: 7, Addr: 0x1040, InvReaders: bitmap.New(1, 2),
				HasPrev: true, PrevPID: 5, PrevPC: 41, FutureReaders: bitmap.New(4)},
			{PID: 0, PC: 16, Dir: 0, Addr: 0, InvReaders: bitmap.Empty,
				FutureReaders: bitmap.Empty},
			{PID: 15, PC: 1, Dir: 15, Addr: 1 << 40, InvReaders: bitmap.Full(16),
				HasPrev: true, PrevPID: 15, PrevPC: 1, FutureReaders: bitmap.Full(16).Clear(15)},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sampleTrace()
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEmptyTrace(t *testing.T) {
	in := &Trace{Nodes: 4}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 4 || len(out.Events) != 0 {
		t.Fatalf("got %+v", out)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTMAGIC????????")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedInput(t *testing.T) {
	in := sampleTrace()
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix (except ones that happen to decode as a
	// shorter valid trace, impossible here since the event count is
	// fixed) must error, not panic.
	for cut := 0; cut < len(full)-1; cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRejectsBadNodeCount(t *testing.T) {
	in := &Trace{Nodes: 200} // > bitmap.MaxNodes
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("node count 200 accepted")
	}
}

// TestRejectsOutOfRangePID covers every field that names a node: each
// must fit the trace's 4-node machine.
func TestRejectsOutOfRangePID(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   Event
	}{
		{"pid", Event{PID: 9}},
		{"negative pid", Event{PID: -1}},
		{"dir", Event{Dir: 4}},
		{"prev_pid", Event{HasPrev: true, PrevPID: 4}},
		{"inv_readers", Event{InvReaders: bitmap.New(4)}},
		{"future_readers", Event{FutureReaders: 0xff00}},
	} {
		in := &Trace{Nodes: 4, Events: []Event{tc.ev}}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil {
			t.Errorf("out-of-range %s accepted", tc.name)
		}
	}
}

// Property: arbitrary well-formed traces round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gen := func() *Trace {
		nodes := 1 + rng.Intn(16)
		tr := &Trace{Nodes: nodes}
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			e := Event{
				PID:           rng.Intn(nodes),
				PC:            rng.Uint64() >> uint(rng.Intn(64)),
				Dir:           rng.Intn(nodes),
				Addr:          rng.Uint64() >> uint(rng.Intn(64)),
				InvReaders:    bitmap.Bitmap(rng.Uint64()).Truncate(nodes),
				FutureReaders: bitmap.Bitmap(rng.Uint64()).Truncate(nodes),
			}
			if rng.Intn(2) == 0 {
				e.HasPrev = true
				e.PrevPID = rng.Intn(nodes)
				e.PrevPC = uint64(rng.Intn(1000))
			}
			tr.Events = append(tr.Events, e)
		}
		return tr
	}
	f := func() bool {
		in := gen()
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
