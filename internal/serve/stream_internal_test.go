package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/trace"
)

// streamFrameBytes encodes one whole frame: a request when method is
// non-empty, otherwise a reply.
func streamFrameBytes(method, target string, status int, vals streamValues, body []byte) []byte {
	return append(appendStreamHead(nil, method, target, status, &vals, len(body)), body...)
}

// streamSeeds are valid frames of every shape, for the fuzzer's corpus.
func streamSeeds() [][]byte {
	batch := AppendWireBatch(nil, []trace.Event{{PID: 1, PC: 20, Dir: 2, Addr: 64}})
	return [][]byte{
		streamFrameBytes(http.MethodPost, "/v1/sessions/c1/events", 0, streamValues{
			0: ContentTypeWire, 1: ContentTypeWire, 2: "k1", 3: "k2", 4: "r-7"}, batch),
		streamFrameBytes(http.MethodGet, "/healthz", 0, streamValues{}, nil),
		streamFrameBytes(http.MethodPut, "/v1/sessions/c2/snapshot?shards=2", 0, streamValues{1: "application/octet-stream"}, []byte("COHSNAP1")),
		streamFrameBytes(http.MethodDelete, "/v1/sessions/a%20b", 0, streamValues{}, nil),
		streamFrameBytes("", "", http.StatusOK, streamValues{1: ContentTypeWire, 4: "r-7"}, AppendWireReply(nil, nil)),
		streamFrameBytes("", "", http.StatusNotFound, streamValues{1: "application/json"}, []byte(`{"error":"no"}`+"\n")),
	}
}

// readFrameBytes reads the frame at the head of data as a stream does.
func readFrameBytes(data []byte) ([]byte, error) {
	var lr io.LimitedReader
	return readStreamFrame(bufio.NewReader(bytes.NewReader(data)), &lr, nil)
}

// FuzzDecodeStreamFrame drives the frame reader and decoder with arbitrary
// bytes. They must never panic. What they accept must re-encode byte for
// byte. A frame's size reserves storage only within its bound before its
// bytes arrive. And no accepted request can reach the stream's own route,
// so a frame cannot ask for an upgrade.
func FuzzDecodeStreamFrame(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed)
	}
	f.Add(streamFrameBytes(http.MethodGet, streamPath, 0, streamValues{}, nil))
	f.Add(streamFrameBytes(http.MethodGet, streamPath+"?x=1", 0, streamValues{}, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 5, 1, 1, 1, '/', 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := readFrameBytes(data)
		if cap(p) > 2*(len(data)+maxDeclaredRequest+1) { // room for append's size classes

			t.Fatalf("a %d-byte input reserved %d bytes", len(data), cap(p))
		}
		if err != nil {
			return
		}
		var fr streamFrame
		if err := decodeStreamFrame(p, &fr); err != nil {
			return
		}
		var vals streamValues
		for k, v := range fr.header {
			if len(v) == 0 {
				continue
			}
			if name := streamHeaders[k]; strings.EqualFold(name, "Upgrade") || strings.EqualFold(name, "Connection") {
				t.Fatalf("a frame carries %s", name)
			}
			vals[k] = string(v)
		}
		if fr.method != "" {
			if path, _, _ := strings.Cut(string(fr.target), "?"); path == streamPath {
				t.Fatalf("an accepted request targets %s", fr.target)
			}
		}
		again := streamFrameBytes(fr.method, string(fr.target), fr.status, vals, fr.body)
		if !bytes.Equal(again, data[:4+len(p)]) {
			t.Fatalf("re-encoding is not canonical:\n in  %x\n out %x", data[:4+len(p)], again)
		}
	})
}

// TestStreamFrameRejects pins the decoder's refusals, one per rule.
func TestStreamFrameRejects(t *testing.T) {
	valid := streamSeeds()[0][4:]
	for name, tc := range map[string]struct {
		payload []byte
		want    error
	}{
		"empty":             {nil, nil},
		"kind":              {[]byte{3, 1}, errStreamKind},
		"method 0":          {[]byte{1, 0, 1, '/', 0}, errStreamMethod},
		"method 5":          {[]byte{1, 5, 1, '/', 0}, errStreamMethod},
		"relative target":   {[]byte{1, 1, 1, 'x', 0}, errStreamTarget},
		"empty target":      {[]byte{1, 1, 0, 0}, errStreamTarget},
		"space in target":   {[]byte{1, 1, 2, '/', ' ', 0}, errStreamTarget},
		"stream route":      {append([]byte{1, 1, byte(len(streamPath))}, append([]byte(streamPath), 0)...), errStreamUpgrade},
		"target overrun":    {[]byte{1, 1, 9, '/'}, nil},
		"status 99":         {[]byte{2, 99, 0}, errStreamStatus},
		"status 1000":       {[]byte{2, 0xe8, 0x07, 0}, errStreamStatus},
		"too many headers":  {[]byte{2, 0xc8, 0x01, 6}, nil},
		"header 0":          {[]byte{2, 0xc8, 0x01, 1, 0, 1, 'x'}, errStreamHeader},
		"header 6":          {[]byte{2, 0xc8, 0x01, 1, 6, 1, 'x'}, errStreamHeader},
		"headers unordered": {[]byte{2, 0xc8, 0x01, 2, 2, 1, 'x', 1, 1, 'x'}, errStreamHeader},
		"header repeated":   {[]byte{2, 0xc8, 0x01, 2, 2, 1, 'x', 2, 1, 'x'}, errStreamHeader},
		"empty value":       {[]byte{2, 0xc8, 0x01, 1, 2, 0}, errStreamHeader},
		"value overrun":     {[]byte{2, 0xc8, 0x01, 1, 2, 5, 'x'}, nil},
		"headers missing":   {[]byte{2, 0xc8, 0x01, 1}, nil},
		"no count":          {[]byte{2, 0xc8, 0x01}, nil},
		"non-minimal":       {[]byte{2, 0xc8, 0x81, 0x00, 0}, nil},
	} {
		var f streamFrame
		err := decodeStreamFrame(tc.payload, &f)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	var f streamFrame
	if err := decodeStreamFrame(valid, &f); err != nil || f.method != http.MethodPost || string(f.header[3]) != "k2" {
		t.Fatalf("valid request: %+v, %v", f, err)
	}
}

// TestReadStreamFrameBounds: a size over the bound fails before any byte
// of the payload is read, and a payload cut short fails too.
func TestReadStreamFrameBounds(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, maxStreamFrame+1)
	if _, err := readFrameBytes(append(over, 1, 2, 3)); !errors.Is(err, errStreamSize) {
		t.Fatalf("oversized frame: %v", err)
	}
	if _, err := readFrameBytes([]byte{0, 0, 0, 9, 1, 2}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short frame: %v", err)
	}
	if _, err := readFrameBytes([]byte{0, 0}); err == nil {
		t.Fatal("a two-byte size was accepted")
	}
}

// startStreamServer serves srv's handler, wrapped by wrap when non-nil,
// on a loopback listener, and returns its host:port.
func startStreamServer(t *testing.T, srv *Server, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); _ = srv.Shutdown() })
	return strings.TrimPrefix(ts.URL, "http://")
}

// roundTrip sends one request on c and decodes its reply.
func roundTrip(t *testing.T, c *StreamConn, method, target string, hdr http.Header, body []byte) StreamReply {
	t.Helper()
	p, replied, err := c.RoundTrip(AppendStreamRequest(nil, method, target, hdr, len(body)), body, nil, 5*time.Second)
	if err != nil || !replied {
		t.Fatalf("%s %s: replied %v, %v", method, target, replied, err)
	}
	r, err := DecodeStreamReply(p)
	if err != nil {
		t.Fatalf("%s %s: reply: %v", method, target, err)
	}
	return r
}

// TestStreamServesTheHandler: frames reach the handler the http.Server
// serves, wrapper included, with their method, target, headers and body,
// and the reply carries the status, headers and body it wrote.
func TestStreamServesTheHandler(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	addr := startStreamServer(t, NewServer(Options{}), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Method+" "+r.URL.RequestURI()+" "+r.Header.Get("X-Request-ID"))
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	})
	c, err := DialStream(false, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hdr := http.Header{"Content-Type": {"application/json"}, "X-Request-Id": {"r1"}}
	if r := roundTrip(t, c, http.MethodPut, "/v1/sessions/a%20b", hdr, []byte(`{"scheme":"last(dir)1"}`)); r.Status != http.StatusCreated || !strings.Contains(string(r.Body), `"id":"a b"`) {
		t.Fatalf("create: %d %s", r.Status, r.Body)
	}
	evs := AppendWireBatch(nil, []trace.Event{{PID: 1, PC: 20, Dir: 2, Addr: 64}})
	hdr = http.Header{"Content-Type": {ContentTypeWire}, "X-Request-Id": {"r2"}, "Idempotency-Key": {"k1"}}
	r := roundTrip(t, c, http.MethodPost, "/v1/sessions/a%20b/events", hdr, evs)
	if r.Status != http.StatusOK || r.ContentType != ContentTypeWire || r.RequestID != "r2" {
		t.Fatalf("post: %+v", r)
	}
	if preds, err := DecodeWireReplyInto(r.Body, []uint64(nil)); err != nil || len(preds) != 1 {
		t.Fatalf("post reply: %v %v", preds, err)
	}
	if r := roundTrip(t, c, http.MethodGet, "/v1/sessions/nope/stats", nil, nil); r.Status != http.StatusNotFound || r.ContentType != "application/json" {
		t.Fatalf("stats of a missing session: %+v", r)
	}
	if r := roundTrip(t, c, http.MethodGet, "/healthz", nil, nil); r.Status != http.StatusOK {
		t.Fatalf("healthz: %+v", r)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"GET /v1/stream ", "PUT /v1/sessions/a%20b r1", "POST /v1/sessions/a%20b/events r2", "GET /v1/sessions/nope/stats ", "GET /healthz "}
	if strings.Join(seen, "|") != strings.Join(want, "|") {
		t.Fatalf("the handler saw %q, want %q", seen, want)
	}
}

// TestStreamUpgradeRefused: the stream route answers 426 to a request
// that does not ask for the upgrade, and a frame for the route ends the
// stream instead of upgrading anything.
func TestStreamUpgradeRefused(t *testing.T) {
	addr := startStreamServer(t, NewServer(Options{}), nil)
	resp, err := http.Get("http://" + addr + streamPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != streamProtocol {
		t.Fatalf("plain GET: %d %v", resp.StatusCode, resp.Header)
	}

	c, err := DialStream(false, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var vals streamValues
	head := appendStreamHead(nil, http.MethodGet, streamPath, 0, &vals, 0)
	if _, replied, err := c.RoundTrip(head, nil, nil, time.Second); err == nil || replied {
		t.Fatalf("a frame for the stream route: replied %v, %v", replied, err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plain := &http.Server{Handler: http.NotFoundHandler()}
	go func() { _ = plain.Serve(ln) }()
	defer plain.Close()
	if _, err := DialStream(false, ln.Addr().String(), time.Second); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("dialling a server with no stream route: %v", err)
	}
}

// TestStreamOversizeReply: a reply past the frame bound is refused with
// an explicit 500 rather than a frame the router would refuse to read.
func TestStreamOversizeReply(t *testing.T) {
	addr := startStreamServer(t, NewServer(Options{}), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/big" {
				_, _ = w.Write(make([]byte, MaxSnapshotBytes+1))
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	c, err := DialStream(false, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r := roundTrip(t, c, http.MethodGet, "/big", nil, nil); r.Status != http.StatusInternalServerError || !strings.Contains(string(r.Body), "frame bound") {
		t.Fatalf("oversize reply: %d %s", r.Status, r.Body)
	}
}

// TestShutdownClosesStreams: Shutdown closes a stream it did not see
// start, and a stream upgraded after it is refused.
func TestShutdownClosesStreams(t *testing.T) {
	srv := NewServer(Options{})
	addr := startStreamServer(t, srv, nil)
	c, err := DialStream(false, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r := roundTrip(t, c, http.MethodGet, "/healthz", nil, nil); r.Status != http.StatusOK {
		t.Fatalf("healthz: %+v", r)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	var vals streamValues
	if _, replied, err := c.RoundTrip(appendStreamHead(nil, http.MethodGet, "/healthz", 0, &vals, 0), nil, nil, time.Second); err == nil || replied {
		t.Fatalf("a frame after Shutdown: replied %v, %v", replied, err)
	}
	if _, err := DialStream(false, addr, time.Second); err == nil {
		t.Fatal("a stream opened after Shutdown")
	}
}

// TestStreamFrameAllocFree pins the frame kernels at zero allocations
// once their buffers are warm: encoding a request's head, reading a frame
// off a stream, and decoding it.
func TestStreamFrameAllocFree(t *testing.T) {
	frame := streamSeeds()[0]
	vals := streamValues{0: ContentTypeWire, 1: ContentTypeWire, 2: "k1", 3: "k2", 4: "r-7"}
	var head, buf []byte
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	var lr io.LimitedReader
	var f streamFrame
	var err error
	for name, fn := range map[string]func(){
		"appendStreamHead": func() {
			head = appendStreamHead(head[:0], http.MethodPost, "/v1/sessions/c1/events", 0, &vals, 64)
		},
		"readStreamFrame": func() {
			src.Reset(frame)
			br.Reset(src)
			buf, err = readStreamFrame(br, &lr, buf)
		},
		"decodeStreamFrame": func() { err = decodeStreamFrame(frame[4:], &f) },
	} {
		fn() // warm once so capacity growth is excluded
		if n := testing.AllocsPerRun(100, fn); n != 0 || err != nil {
			t.Errorf("%s: %v allocations per run, err %v", name, n, err)
		}
	}
}
