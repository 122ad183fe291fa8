package cluster

// The router's one transport: per backend, a pool of COHWIRE2 streams
// (serve.StreamConn). Proxied requests, creates, snapshots, ships,
// migrations and probes all go through it. A request takes an idle stream
// of its backend, or dials one, writes its frame and reads the reply on
// its caller's goroutine, within one deadline (proxyTimeout, or
// probeTimeout for a probe), and puts the stream back. A stream that
// failed is closed, never put back.
//
// A reused stream that dies before any byte of its reply arrives was
// most likely closed by its backend while it sat idle (a restart, or a
// Shutdown), so the request is sent once more on a stream dialled for it,
// under net/http's replay rule: only a GET, or a request that carries an
// Idempotency-Key, is sent again, and never after its deadline passed.
// The backend's other idle streams are as old as that one, so they are
// closed then too.
//
// Ownership: an idle stream belongs to its pool, and a stream taken from
// it to the caller until the caller puts it back or closes it. Close
// closes every pool: its idle streams at once, and each stream put back
// after that.

import (
	"errors"
	"net/http"
	"os"
	"sync"
	"time"

	"cohpredict/internal/serve"
)

// maxIdleStreams bounds a backend's idle streams.
const maxIdleStreams = 64

// maxPooledCall bounds the buffers a call keeps for its next use; a
// larger one (a snapshot's) is dropped.
const maxPooledCall = 64 << 10

// pool is one backend's idle streams.
type pool struct {
	secure bool   // dial over TLS: an https backend
	addr   string // host:port

	mu     sync.Mutex
	idle   []*serve.StreamConn //predlint:guardedby mu
	closed bool                //predlint:guardedby mu
}

// get takes the most recently used idle stream, or dials one; reused
// reports which.
func (p *pool) get(timeout time.Duration) (s *serve.StreamConn, reused bool, err error) {
	p.mu.Lock()
	if k := len(p.idle) - 1; k >= 0 {
		s = p.idle[k]
		p.idle[k] = nil
		p.idle = p.idle[:k]
	}
	p.mu.Unlock()
	if s != nil {
		return s, true, nil
	}
	s, err = p.dial(timeout)
	return s, false, err
}

func (p *pool) dial(timeout time.Duration) (*serve.StreamConn, error) {
	return serve.DialStream(p.secure, p.addr, timeout)
}

// put gives a stream back to the pool, or closes it when the pool is
// closed or full.
func (p *pool) put(s *serve.StreamConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdleStreams {
		p.idle = append(p.idle, s)
		s = nil
	}
	p.mu.Unlock()
	if s != nil {
		_ = s.Close()
	}
}

// drop closes the idle streams, and after close every stream put back.
func (p *pool) drop(close bool) {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = p.closed || close
	p.mu.Unlock()
	for _, s := range idle {
		_ = s.Close()
	}
}

// exchange sends c's request to the pool's backend and reads the reply
// into c, within timeout: a transport failure (dial, reset, timeout, a
// malformed reply) is an error, and any reply, a 5xx too, is not.
func (p *pool) exchange(c *call, timeout time.Duration) error {
	s, reused, err := p.get(timeout)
	if err != nil {
		return err
	}
	replied, err := p.roundTrip(s, c, timeout)
	if err != nil && reused && !replied && c.replay && !errors.Is(err, os.ErrDeadlineExceeded) {
		p.drop(false)
		if s, err = p.dial(timeout); err != nil {
			return err
		}
		_, err = p.roundTrip(s, c, timeout)
	}
	return err
}

// roundTrip sends c's request on s and reads the reply into c. s goes
// back to the pool after a whole reply and is closed after anything else;
// replied reports whether any byte of the reply arrived.
func (p *pool) roundTrip(s *serve.StreamConn, c *call, timeout time.Duration) (replied bool, err error) {
	reply, replied, err := s.RoundTrip(c.head, c.body, c.buf, timeout)
	c.buf = reply
	if err == nil {
		c.StreamReply, err = serve.DecodeStreamReply(reply)
	}
	if err != nil {
		_ = s.Close()
		return replied, err
	}
	p.put(s)
	return true, nil
}

// call is one request to a backend and its reply, in storage recycled
// through calls: the client's body when the call relays one, the request
// frame's head, and the reply frame, which the decoded reply aliases.
type call struct {
	in     []byte
	head   []byte
	body   []byte // the request's body: in, or bytes the caller holds
	replay bool   // net/http would replay the request
	buf    []byte
	serve.StreamReply
}

var calls = sync.Pool{New: func() interface{} { return new(call) }}

func newCall() *call { return calls.Get().(*call) }

// request sets the request c sends: method, target (an origin-form
// request target), the serve contract's headers of hdr, and body.
func (c *call) request(method, target string, hdr http.Header, body []byte) {
	c.head = serve.AppendStreamRequest(c.head[:0], method, target, hdr, len(body))
	c.body = body
	c.replay = method == http.MethodGet || hdr.Get("Idempotency-Key") != ""
}

// release returns c to calls; nothing of it may be used afterwards.
func (c *call) release() {
	c.in, c.head, c.buf = keepCall(c.in), keepCall(c.head), keepCall(c.buf)
	c.body, c.StreamReply = nil, serve.StreamReply{}
	calls.Put(c)
}

func keepCall(b []byte) []byte {
	if cap(b) > maxPooledCall {
		return nil
	}
	return b[:0]
}
