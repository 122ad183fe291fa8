package trace

import (
	"bytes"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/codec"
)

// FuzzRead asserts the binary decoder never panics on arbitrary input,
// that every event it accepts fits the trace's machine, and that the
// decoder is canonical: anything it accepts re-encodes to the same bytes.
func FuzzRead(f *testing.F) {
	// Seed with a valid encoding and some mutations.
	valid := &Trace{Nodes: 16, Events: []Event{{PID: 3, PC: 42, Dir: 7, Addr: 0x1040}}}
	var buf bytes.Buffer
	if err := valid.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("COHPRED2"))
	f.Add([]byte("COHPRED2\x10\x00"))
	f.Add([]byte{})
	// A 4-node trace whose one event names future readers 8-15.
	wide := &Trace{Nodes: 4, Events: []Event{{FutureReaders: 0xff00}}}
	buf.Reset()
	if err := wide.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, field := range []string{"pid", "dir", "prev_pid"} {
		for _, v := range wideNodeValues {
			f.Add(append(codec.AppendUvarint([]byte(magic), 4), wideNodeBlock(field, v)...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		full := bitmap.Full(tr.Nodes)
		fits := func(node uint8) bool { return int(node) < tr.Nodes }
		for i, e := range tr.Events {
			if !fits(e.PID) || !fits(e.Dir) || !fits(e.PrevPID) ||
				e.InvReaders&^full != 0 || e.FutureReaders&^full != 0 {
				t.Fatalf("event %d does not fit %d nodes: %+v", i, tr.Nodes, e)
			}
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("re-encoding accepted trace failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input % x re-encodes as % x", data, out.Bytes())
		}
	})
}
