package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
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

// TestRejectsNonCanonical covers the forms the COHPRED1 reader accepted:
// each must now fail, so a trace file has exactly one encoding.
func TestRejectsNonCanonical(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{Nodes: 16, Events: []Event{{PID: 3, PC: 42, Dir: 7, Addr: 0x1040}}}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// valid is magic, nodes, count, then pid pc dir addr inv has_prev
	// future, each one byte except addr (0x1040 takes two).
	hasPrevAt := len(magic) + 2 + 6
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"trailing bytes", edit(func(b []byte) []byte { return append(b, 0, 0) }), codec.ErrTrailing},
		{"non-minimal pid", edit(func(b []byte) []byte {
			return append(b[:len(magic)+2:len(magic)+2], append([]byte{0x83, 0x00}, b[len(magic)+3:]...)...)
		}), codec.ErrNonMinimal},
		{"has_prev 2", edit(func(b []byte) []byte { b[hasPrevAt] = 2; return b }), codec.ErrBool},
		{"COHPRED1 magic", edit(func(b []byte) []byte { b[len(magic)-1] = '1'; return b }), nil},
	} {
		if _, err := Read(bytes.NewReader(tc.data)); err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: Read error %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the unedited trace fails: %v", err)
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

// wideNodeValues do not fit an event's node-id byte; narrowed before the
// range check, 256 and 2^63 would read as node 0 and 257 as node 1.
var wideNodeValues = []uint64{256, 257, 1 << 63}

// wideNodeBlock returns the one-event block of an event with a previous
// writer whose node-id field (pid, dir or prev_pid) is v and whose other
// fields are zero: each is a one-byte uvarint in AppendBlock's output,
// spliced here for v's encoding.
func wideNodeBlock(field string, v uint64) []byte {
	b := AppendBlock(nil, []Event{{HasPrev: true}})
	at := map[string]int{"pid": 1, "dir": 3, "prev_pid": 7}[field]
	return append(codec.AppendUvarint(b[:at:at], v), b[at+1:]...)
}

// TestNarrowsOnlyAfterRangeCheck feeds node ids that do not fit the
// record's byte, in blocks and COHPRED2 files of a 4-node machine, where
// their narrowed values would be real nodes. Each must fail with
// ErrRange.
func TestNarrowsOnlyAfterRangeCheck(t *testing.T) {
	for _, field := range []string{"pid", "dir", "prev_pid"} {
		evs, _, err := DecodeBlock(wideNodeBlock(field, 3), 4, 1, nil)
		if err != nil || len(evs) != 1 {
			t.Fatalf("%s 3: %v", field, err)
		}
		for _, v := range wideNodeValues {
			block := wideNodeBlock(field, v)
			if _, _, err := DecodeBlock(block, 4, 1, nil); !errors.Is(err, ErrRange) {
				t.Errorf("block with %s %d: err %v, want ErrRange", field, v, err)
			}
			file := append(codec.AppendUvarint([]byte(magic), 4), block...)
			if _, err := Read(bytes.NewReader(file)); !errors.Is(err, ErrRange) {
				t.Errorf("COHPRED2 file with %s %d: err %v, want ErrRange", field, v, err)
			}
		}
	}
}

// TestEventIs48Bytes pins the record's layout: words first, node ids in
// bytes after them. A field that re-pads the record grows every trace,
// batch and client buffer by half.
func TestEventIs48Bytes(t *testing.T) {
	if got := reflect.TypeOf(Event{}).Size(); got != 48 {
		t.Fatalf("trace.Event is %d bytes, want 48: keep the 64-bit fields first and the node ids in bytes after them", got)
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
				PID:           uint8(rng.Intn(nodes)),
				PC:            rng.Uint64() >> uint(rng.Intn(64)),
				Dir:           uint8(rng.Intn(nodes)),
				Addr:          rng.Uint64() >> uint(rng.Intn(64)),
				InvReaders:    bitmap.Bitmap(rng.Uint64()) & bitmap.Full(nodes),
				FutureReaders: bitmap.Bitmap(rng.Uint64()) & bitmap.Full(nodes),
			}
			if rng.Intn(2) == 0 {
				e.HasPrev = true
				e.PrevPID = uint8(rng.Intn(nodes))
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
