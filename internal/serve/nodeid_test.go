package serve_test

import (
	"bytes"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"cohpredict/internal/codec"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// wideNodeValues do not fit an event's node-id byte; narrowed before the
// range check, 256 and 2^63 would read as node 0 and 257 as node 1.
var wideNodeValues = []uint64{256, 257, 1 << 63}

// wideNodeFrame returns a one-event COHWIRE1 batch frame of an event with
// a previous writer whose node-id field (pid, dir or prev_pid) is v and
// whose other fields are zero: the frame ends in the block
// count pid pc dir addr inv has_prev prev_pid prev_pc future, one byte
// each, and v's encoding is spliced in.
func wideNodeFrame(field string, v uint64) []byte {
	frame := serve.AppendWireBatch(nil, []trace.Event{{HasPrev: true}})
	at := len(frame) - 10 + map[string]int{"pid": 1, "dir": 3, "prev_pid": 7}[field]
	return append(codec.AppendUvarint(frame[:at:at], v), frame[at+1:]...)
}

// addWideNodeFrames seeds a COHWIRE1 fuzz target with every wide-id
// frame, for a 16-node machine.
func addWideNodeFrames(f *testing.F) {
	for _, field := range []string{"pid", "dir", "prev_pid"} {
		for _, v := range wideNodeValues {
			f.Add(wideNodeFrame(field, v), 16)
		}
	}
}

// wideNodeJSON are event bodies whose node id does not fit a byte: the
// JSON decoder refuses each before validation could see a narrowed id.
var wideNodeJSON = []string{
	`{"pid":-1}`,
	`{"pid":256}`,
	`{"dir":300}`,
	`{"has_prev":true,"prev_pid":256}`,
}

// TestWideNodeIDsRefused proves that node ids are narrowed to the
// event's byte only after their range check: every COHWIRE1 frame with a
// wide pid, dir or prev_pid fails with trace.ErrRange, and every such
// frame or JSON body posted to a session answers 400 with nothing
// trained.
func TestWideNodeIDsRefused(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "union(pid+dir+add8)2[forwarded]"}).ID
	path := "/v1/sessions/" + id + "/events"

	for _, field := range []string{"pid", "dir", "prev_pid"} {
		if evs, err := serve.DecodeWireBatchInto(wideNodeFrame(field, 3), 16, nil); err != nil || len(evs) != 1 {
			t.Fatalf("control frame with %s 3: %v", field, err)
		}
		for _, v := range wideNodeValues {
			frame := wideNodeFrame(field, v)
			if _, err := serve.DecodeWireBatchInto(frame, 16, nil); !errors.Is(err, trace.ErrRange) {
				t.Errorf("frame with %s %d: err %v, want trace.ErrRange", field, v, err)
			}
			code, _, _ := c.doRaw("POST", path, frame, map[string]string{"Content-Type": serve.ContentTypeWire})
			if code != http.StatusBadRequest {
				t.Errorf("posted frame with %s %d: status %d, want 400", field, v, code)
			}
		}
	}
	for _, body := range wideNodeJSON {
		if code := c.do("POST", path, []byte(body), nil); code != http.StatusBadRequest {
			t.Errorf("posted %s: status %d, want 400", body, code)
		}
		if code := c.do("POST", path, []byte("["+body+"]"), nil); code != http.StatusBadRequest {
			t.Errorf("posted [%s]: status %d, want 400", body, code)
		}
	}
	if got := c.stats(id).Events; got != 0 {
		t.Fatalf("refused posts trained %d events", got)
	}
}

// TestJSONOverLimitRefusedCheaply: a JSON array past MaxBatchEvents is
// refused as its first surplus element starts, not after the whole body
// is decoded. The body is the longest such array under the 8 MiB body
// bound, 2,796,202 empty (and so valid) events; decoded whole it would
// allocate about 1 GiB before its count was checked.
func TestJSONOverLimitRefusedCheaply(t *testing.T) {
	const limit = 8 << 20
	n := (limit - 1) / 3 // "[" "{}" (",{}")*(n-1) "]" is 3n+1 bytes
	body := make([]byte, 0, limit)
	body = append(body, "[{}"...)
	body = append(body, bytes.Repeat([]byte(",{}"), n-1)...)
	body = append(body, ']')

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := serve.DecodeEvents(body, 16)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("DecodeEvents of %d events: err %v, want the batch limit", n, err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= 64<<20 {
		t.Fatalf("refusing %d events allocated %d MiB, want under 64", n, alloc>>20)
	}
	t.Logf("refusing %d events allocated %.1f MiB", n, float64(alloc)/(1<<20))

	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	id := c.createSession(serve.CreateSessionRequest{Scheme: "last(add8)1"}).ID
	c.postEvents(id, hammerEvents(8, 16), 8)
	if code := c.do("POST", "/v1/sessions/"+id+"/events", body, nil); code != http.StatusBadRequest {
		t.Fatalf("over-limit body: status %d, want 400", code)
	}
	if got := c.stats(id).Events; got != 8 {
		t.Fatalf("after a refused post the session holds %d events, want 8", got)
	}
}
