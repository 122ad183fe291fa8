package serve

// COHWIRE2 — the stream a cluster router keeps open to each backend, so
// that a proxied request costs one frame each way on a kept connection
// instead of an HTTP/1.1 exchange. The router opens a stream with one
// HTTP/1.1 request on the backend's listener:
//
//	GET /v1/stream HTTP/1.1
//	Connection: Upgrade
//	Upgrade: cohwire2
//
// The backend answers 101 Switching Protocols and takes the connection
// over. From then on the connection carries frames, one request and then
// its reply at a time:
//
//	frame   := size:uint32 payload         (big-endian; size ≤ maxStreamFrame)
//	payload := request | reply
//	request := 1 method:byte target:string headers body
//	reply   := 2 status:uvarint headers body
//	headers := count:uvarint (name:byte value:string)*count
//	string  := length:uvarint byte*length
//	body    := byte*                       (the rest of the payload)
//
// A method is 1–4 (GET, PUT, POST, DELETE). A target is an origin-form
// request target of visible ASCII, and never the stream's own path, so a
// frame cannot ask for an upgrade. A status has three digits. A header
// name is 1–5 (streamHeaders: the headers the serve contract reads and
// writes, which are the ones the router relayed over HTTP); each appears
// at most once, in ascending order, with a non-empty value. As in
// COHWIRE1 every integer is a minimal uvarint, so re-encoding an accepted
// payload reproduces it byte for byte.
//
// The backend serves each request frame with the handler its http.Server
// serves, so the events route's fault points, flight records and
// metrics, and any wrapper around the handler, see a frame as they see an
// HTTP request. A reply is whole before its first byte is written. A
// handler that aborts (the chaos reset) closes the stream, which fails
// the one request on it and no other.

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"cohpredict/internal/codec"
)

// The stream's route and its Upgrade token.
const (
	streamPath     = "/v1/stream"
	streamProtocol = "cohwire2"
)

// maxStreamFrame bounds a frame's payload: a snapshot and a head.
const maxStreamFrame = MaxSnapshotBytes + 64<<10

// maxPooledFrame bounds the frame buffers a stream or a router call keeps
// between frames; a larger one (a snapshot's) is dropped after its use.
const maxPooledFrame = 64 << 10

// Payload kinds.
const (
	streamRequest = 1
	streamReply   = 2
)

// streamMethods are the methods a request can carry, by code - 1.
var streamMethods = [...]string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete}

// streamHeaders are the headers a frame can carry, by code - 1, in
// canonical form and code order.
var streamHeaders = [...]string{"Accept", "Content-Type", "Idempotency-Ack", "Idempotency-Key", "X-Request-Id"}

// Decode errors of a payload's head.
var (
	errStreamKind    = errors.New("serve: stream frame kind unknown")
	errStreamMethod  = errors.New("serve: stream frame method unknown")
	errStreamTarget  = errors.New("serve: stream frame target is not an origin-form path")
	errStreamUpgrade = errors.New("serve: stream frame asks for the stream's own route")
	errStreamStatus  = errors.New("serve: stream frame status out of range")
	errStreamHeader  = errors.New("serve: stream frame header unknown, out of order or empty")
	errStreamSize    = errors.New("serve: stream frame exceeds its bound")
)

// streamFrame is one decoded payload: a request (method non-empty) or a
// reply. The target, the header values and the body alias the payload.
type streamFrame struct {
	method string
	target []byte
	status int
	header [len(streamHeaders)][]byte // values by name code - 1; empty when absent
	body   []byte
}

// decodeStreamFrame decodes payload p into f. It never panics, and every
// count and length is checked against the bytes left before it is used.
//
//predlint:hotpath
func decodeStreamFrame(p []byte, f *streamFrame) error {
	*f = streamFrame{}
	if len(p) < 2 {
		return codec.ErrTruncated
	}
	i := 1
	switch p[0] {
	case streamRequest:
		m := int(p[1]) - 1
		if m < 0 || m >= len(streamMethods) {
			return errStreamMethod
		}
		t, n, err := streamString(p[2:])
		if err != nil {
			return err
		}
		if err := checkTarget(t); err != nil {
			return err
		}
		f.method, f.target = streamMethods[m], t
		i = 2 + n
	case streamReply:
		v, n, ok := codec.Uvarint(p[1:])
		if !ok {
			return codec.UvarintErr(n)
		}
		if v < 100 || v > 999 {
			return errStreamStatus
		}
		f.status = int(v)
		i = 1 + n
	default:
		return errStreamKind
	}
	count, n, ok := codec.Uvarint(p[i:])
	if !ok {
		return codec.UvarintErr(n)
	}
	if count > uint64(len(streamHeaders)) {
		return codec.ErrCount
	}
	i += n
	last := 0
	for ; count > 0; count-- {
		if i >= len(p) {
			return codec.ErrTruncated
		}
		name := int(p[i])
		if name <= last || name > len(streamHeaders) {
			return errStreamHeader
		}
		v, n, err := streamString(p[i+1:])
		if err != nil {
			return err
		}
		if len(v) == 0 {
			return errStreamHeader
		}
		f.header[name-1] = v
		last = name
		i += 1 + n
	}
	f.body = p[i:]
	return nil
}

// streamString reads a length-prefixed string at the head of b and
// returns it, aliasing b, with the bytes it took.
//
//predlint:hotpath
func streamString(b []byte) ([]byte, int, error) {
	l, n, ok := codec.Uvarint(b)
	if !ok {
		return nil, 0, codec.UvarintErr(n)
	}
	if l > uint64(len(b)-n) {
		return nil, 0, codec.ErrCount
	}
	return b[n : n+int(l)], n + int(l), nil
}

// checkTarget accepts an origin-form request target of visible ASCII
// whose path is not the stream's own.
//
//predlint:hotpath
func checkTarget(t []byte) error {
	if len(t) == 0 || t[0] != '/' {
		return errStreamTarget
	}
	path := len(t)
	for k, c := range t {
		if c < 0x21 || c > 0x7e {
			return errStreamTarget
		}
		if c == '?' && path == len(t) {
			path = k
		}
	}
	if string(t[:path]) == streamPath {
		return errStreamUpgrade
	}
	return nil
}

// streamValues are a frame's header values by name code - 1; an empty
// value is left out of the frame.
type streamValues [len(streamHeaders)]string

// from takes the first value of each frame header that h carries.
func (v *streamValues) from(h http.Header) {
	for k, name := range streamHeaders {
		v[k] = ""
		if vs := h[name]; len(vs) > 0 {
			v[k] = vs[0]
		}
	}
}

// appendStreamHead appends a frame's size and the head of its payload: a
// request's when method is non-empty, otherwise a reply's with status.
// The body, of bodyLen bytes, is the caller's to write after it. An
// unknown method encodes as code 0, which the decoder refuses.
//
//predlint:hotpath
func appendStreamHead(dst []byte, method, target string, status int, vals *streamValues, bodyLen int) []byte {
	size := 1
	if method != "" {
		size += 1 + codec.UvarintLen(uint64(len(target))) + len(target)
	} else {
		size += codec.UvarintLen(uint64(status))
	}
	count := 0
	for _, v := range vals {
		if v != "" {
			count++
			size += 1 + codec.UvarintLen(uint64(len(v))) + len(v)
		}
	}
	size += codec.UvarintLen(uint64(count))
	dst = slices.Grow(dst, 4+size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size+bodyLen))
	if method != "" {
		code := byte(0)
		for k, m := range streamMethods {
			if m == method {
				code = byte(k + 1)
			}
		}
		dst = append(dst, streamRequest, code)
		dst = codec.AppendUvarint(dst, uint64(len(target)))
		dst = append(dst, target...)
	} else {
		dst = append(dst, streamReply)
		dst = codec.AppendUvarint(dst, uint64(status))
	}
	dst = codec.AppendUvarint(dst, uint64(count))
	for k, v := range vals {
		if v != "" {
			dst = append(dst, byte(k+1))
			dst = codec.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
	}
	return dst
}

// readStreamFrame reads one frame from br into buf's storage and returns
// its payload, through lr, the caller's reusable limit. A size over
// maxStreamFrame fails before any byte of the payload is read. As for a
// request body, the size alone reserves at most maxDeclaredRequest bytes,
// and the buffer grows past that as the payload's bytes arrive.
func readStreamFrame(br *bufio.Reader, lr *io.LimitedReader, buf []byte) ([]byte, error) {
	head, err := br.Peek(4)
	if err != nil {
		return buf[:0], err
	}
	size := int64(binary.BigEndian.Uint32(head))
	_, _ = br.Discard(4) // Peek has buffered them
	if size > maxStreamFrame {
		return buf[:0], errStreamSize
	}
	lr.R, lr.N = br, size
	p, err := ReadBody(buf, lr, size, maxDeclaredRequest)
	if err == nil && int64(len(p)) < size {
		err = io.ErrUnexpectedEOF
	}
	return p, err
}

// keepFrame returns b's storage for reuse, or nil if it is too large to
// keep.
func keepFrame(b []byte) []byte {
	if cap(b) > maxPooledFrame {
		return nil
	}
	return b[:0]
}

// StreamConn is a router's end of one stream to a backend. One request
// at a time is written on it and its reply read, by the caller that holds
// it.
type StreamConn struct {
	conn net.Conn
	br   *bufio.Reader
	lr   io.LimitedReader
	vec  [2][]byte
	out  net.Buffers
}

// DialStream opens a stream to the backend at addr (host:port), over TLS
// when secure, and upgrades it, all within timeout.
func DialStream(secure bool, addr string, timeout time.Duration) (*StreamConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if secure {
		host, _, _ := net.SplitHostPort(addr)
		conn = tls.Client(conn, &tls.Config{ServerName: host})
	}
	//predlint:ignore determinism a connection deadline bounds a wait; it decides no result
	_ = conn.SetDeadline(time.Now().Add(timeout)) // a failed set fails the exchange below
	c := &StreamConn{conn: conn, br: bufio.NewReader(conn)}
	if err := c.upgrade(addr); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// upgrade sends the upgrade request and reads the backend's 101.
func (c *StreamConn) upgrade(addr string) error {
	if _, err := io.WriteString(c.conn, "GET "+streamPath+" HTTP/1.1\r\nHost: "+addr+
		"\r\nConnection: Upgrade\r\nUpgrade: "+streamProtocol+"\r\n\r\n"); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	_ = resp.Body.Close() // a 101 has no body; any other status fails the dial
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), streamProtocol) {
		return fmt.Errorf("serve: %s answered the %s upgrade with %s", addr, streamProtocol, resp.Status)
	}
	return nil
}

// RoundTrip writes one request frame, its head and then body, and reads
// the reply frame into buf's storage, all within timeout. It returns the
// reply's payload, and whether any byte of the reply arrived: a stream
// that fails before then may never have delivered the request.
func (c *StreamConn) RoundTrip(head, body, buf []byte, timeout time.Duration) (reply []byte, replied bool, err error) {
	//predlint:ignore determinism a connection deadline bounds a wait; it decides no result
	if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return buf[:0], false, err
	}
	if err := writeFrame(c.conn, &c.out, &c.vec, head, body); err != nil {
		return buf[:0], false, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return buf[:0], false, err
	}
	reply, err = readStreamFrame(c.br, &c.lr, buf)
	return reply, true, err
}

// writeFrame writes a frame's size and head, then its body, in one write
// where conn allows, through out and vec, the caller's reusable vector.
func writeFrame(conn net.Conn, out *net.Buffers, vec *[2][]byte, head, body []byte) error {
	vec[0], vec[1] = head, body
	*out = vec[:]
	_, err := out.WriteTo(conn)
	return err
}

// Close closes the stream.
func (c *StreamConn) Close() error { return c.conn.Close() }

// AppendStreamRequest appends a request frame's size and head to dst:
// method, target (an origin-form request target) and the frame headers
// of hdr, ahead of a body of bodyLen bytes.
func AppendStreamRequest(dst []byte, method, target string, hdr http.Header, bodyLen int) []byte {
	var vals streamValues
	vals.from(hdr)
	return appendStreamHead(dst, method, target, 0, &vals, bodyLen)
}

// StreamReply is a decoded reply frame: its status, the two headers a
// router relays, and its body, which aliases the frame.
type StreamReply struct {
	Status      int
	ContentType string
	RequestID   string
	Body        []byte
}

// DecodeStreamReply decodes a reply frame's payload.
func DecodeStreamReply(p []byte) (StreamReply, error) {
	var f streamFrame
	if err := decodeStreamFrame(p, &f); err != nil {
		return StreamReply{}, err
	}
	if f.method != "" {
		return StreamReply{}, errStreamKind
	}
	return StreamReply{
		Status:      f.status,
		ContentType: headerValue(f.header[1]),
		RequestID:   headerValue(f.header[4]),
		Body:        f.body,
	}, nil
}

// headerValue returns v as a string, without allocating for the media
// types the API speaks.
func headerValue(v []byte) string {
	switch string(v) {
	case "":
		return ""
	case ContentTypeWire:
		return ContentTypeWire
	case "application/json":
		return "application/json"
	case "application/octet-stream":
		return "application/octet-stream"
	}
	return string(v)
}

// handleStream answers GET /v1/stream: it upgrades the connection to a
// stream and serves its frames until the peer closes it, a handler aborts
// it, or Shutdown closes it. The connection is this goroutine's from the
// hijack on; it closes it on the way out.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.om.requestsTotal.Inc()
	hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	hj, ok := w.(http.Hijacker)
	if !ok || hs == nil || !strings.EqualFold(r.Header.Get("Upgrade"), streamProtocol) {
		s.om.errorsTotal.Inc()
		w.Header().Set("Upgrade", streamProtocol)
		writeJSON(w, http.StatusUpgradeRequired, ErrorResponse{
			Error: "serve: " + streamPath + " wants an HTTP/1.1 request with Upgrade: " + streamProtocol})
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return // the connection cannot be taken over; net/http ends the exchange
	}
	defer func() { _ = conn.Close() }()
	if !s.addStream(conn) {
		return
	}
	defer s.dropStream(conn)
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+streamProtocol+"\r\n\r\n"); err != nil {
		return
	}
	h := hs.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	st := &stream{conn: conn, br: brw.Reader, base: r, hdr: make(http.Header, len(streamHeaders))}
	st.w.hdr = make(http.Header, 4)
	for st.serveFrame(h) == nil {
	}
}

// addStream registers a hijacked stream for Shutdown to close, unless the
// server is draining: then the caller closes it unanswered.
func (s *Server) addStream(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.streams == nil {
		s.streams = make(map[net.Conn]bool)
	}
	s.streams[c] = true
	return true
}

func (s *Server) dropStream(c net.Conn) {
	s.mu.Lock()
	delete(s.streams, c)
	s.mu.Unlock()
}

// stream is the backend's end of one stream: its reader, and the request,
// response writer and buffers it reuses for every frame.
type stream struct {
	conn net.Conn
	br   *bufio.Reader
	lr   io.LimitedReader
	in   []byte // the request frame's storage
	head []byte // the reply's size and head
	vec  [2][]byte
	out  net.Buffers

	base  *http.Request // the upgrade request, whose context every frame's request carries
	req   http.Request
	url   url.URL
	hdr   http.Header
	slots [len(streamHeaders)][1]string // the header's value slices
	body  frameBody
	w     frameWriter
}

// serveFrame reads one request frame, serves it with h and writes the
// reply. Any error ends the stream: a malformed frame, or a connection
// that failed.
func (st *stream) serveFrame(h http.Handler) error {
	p, err := readStreamFrame(st.br, &st.lr, st.in)
	st.in = p
	if err != nil {
		return err
	}
	var f streamFrame
	if err := decodeStreamFrame(p, &f); err != nil {
		return err
	}
	if f.method == "" {
		return errStreamKind
	}
	if err := st.request(&f); err != nil {
		return err
	}
	st.w.reset()
	h.ServeHTTP(&st.w, &st.req)
	st.in = keepFrame(st.in)
	return st.reply()
}

// request rebuilds st.req for the request frame f.
func (st *stream) request(f *streamFrame) error {
	target := string(f.target)
	path, query, _ := strings.Cut(target, "?")
	st.url = url.URL{Path: path, RawQuery: query}
	if strings.IndexByte(path, '%') >= 0 {
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return err
		}
		st.url = *u
	}
	clear(st.hdr)
	for k, v := range f.header {
		if len(v) > 0 {
			st.slots[k][0] = headerValue(v)
			st.hdr[streamHeaders[k]] = st.slots[k][:]
		}
	}
	st.body.b = f.body
	st.req = *st.base
	st.req.Method = f.method
	st.req.URL = &st.url
	st.req.RequestURI = target
	st.req.Header = st.hdr
	st.req.Body = &st.body
	st.req.ContentLength = int64(len(f.body))
	return nil
}

// reply writes the response the handler left in st.w as one reply frame:
// its size and head, then its body, in one write where the connection
// allows.
func (st *stream) reply() error {
	w := &st.w
	w.WriteHeader(http.StatusOK) // a handler that wrote nothing answered 200
	if len(w.body) > MaxSnapshotBytes {
		w.status, w.vals = http.StatusInternalServerError, streamValues{1: "application/json"}
		w.body = jsonBody(ErrorResponse{Error: fmt.Sprintf("serve: a reply of %d bytes exceeds the stream's frame bound", len(w.body))})
	}
	st.head = appendStreamHead(st.head[:0], "", "", w.status, &w.vals, len(w.body))
	err := writeFrame(st.conn, &st.out, &st.vec, st.head, w.body)
	w.body = keepFrame(w.body)
	return err
}

// frameBody is a request frame's body.
type frameBody struct{ b []byte }

func (f *frameBody) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

func (f *frameBody) Close() error { return nil }

// frameWriter is a frame's http.ResponseWriter: it keeps the status, the
// frame headers' values as they stood at WriteHeader, and the whole body.
type frameWriter struct {
	hdr    http.Header
	status int
	vals   streamValues
	body   []byte
}

func (w *frameWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body = w.body[:0]
}

func (w *frameWriter) Header() http.Header { return w.hdr }

func (w *frameWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.vals.from(w.hdr)
	}
}

func (w *frameWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}
