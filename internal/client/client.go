// Package client is a resilient Go client for the predserve API. It
// exists because the chaos layer (internal/fault) makes the service
// deliberately unreliable: batches are dropped at admission (503),
// requests fail with injected 500s, and connections reset after the
// engine already trained on the batch. The client turns that into an
// exactly-once stream:
//
//   - every request gets a hard per-request timeout;
//   - retryable failures (connection errors, 429, 500, 503) back off
//     exponentially with deterministic, seeded jitter and retry up to a
//     bound — except on non-idempotent requests (create, restore), which
//     retry only provably state-free refusals (429, 503), never an
//     ambiguous transport failure;
//   - every event post carries an Idempotency-Key, so a batch whose
//     response was lost after processing is replayed from the server's
//     cache instead of training the engine twice, and acknowledges with
//     an Idempotency-Ack the key of the last post to the same session
//     that returned, whose reply the client holds, so the server keeps
//     that key but drops its cached reply;
//   - the default transport never follows a redirect: a 3xx returns as
//     a non-retryable *APIError, so a keyed post never leaves the URL
//     it was keyed for.
//
// Determinism matters here the same way it does everywhere else in this
// repo: a chaos run is an experiment, and experiments replay from their
// seeds. Jitter comes from a seeded *rand.Rand, sleeping is injectable
// (tests and the chaos hammer stub it out), and the transport disables
// keep-alive connection reuse so Go's http.Transport never silently
// retries a request on a dead connection — every retry is the client's
// own, keyed, and accounted.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cohpredict/internal/serve"
)

// Defaults for the zero Options value.
const (
	DefaultTimeout    = 5 * time.Second
	DefaultMaxRetries = 8
)

// The backoff schedule's bounds: retry attempt n sleeps a jittered
// baseBackoff<<n, capped at maxBackoff.
const (
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 250 * time.Millisecond
)

// Options configures a Client. The zero value works against a local
// server with the defaults above. Every client backs off between the
// same bounds, baseBackoff and maxBackoff.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Timeout bounds each HTTP attempt (not the whole retry loop).
	Timeout time.Duration
	// MaxRetries bounds retries per request (attempts = 1 + MaxRetries).
	MaxRetries int
	// Seed drives backoff jitter and idempotency-key generation; two
	// clients with the same seed issue the same keys and the same waits.
	Seed int64
	// Sleep, when non-nil, replaces time.Sleep in the backoff loop (the
	// chaos tests count and skip the waits).
	Sleep func(time.Duration)
	// HTTP, when non-nil, replaces the default transport (which disables
	// keep-alives; see the package comment).
	HTTP *http.Client
	// Binary posts event batches as COHWIRE1 frames instead of JSON. The
	// transport is fixed for the client's lifetime: a server that does not
	// speak the wire format answers 415, which returns like any other 4xx.
	Binary bool
}

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int
	Code    string // machine classifier from the error envelope, if any
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Retryable reports whether err is worth retrying: transport-level
// failures (resets, timeouts) and the service's transient statuses.
// Other 4xx are the caller's bug and replay identically, and a response
// coded CodeShardFailed marks a permanently poisoned session — retrying
// it can only fail again.
func Retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Code == serve.CodeShardFailed {
			return false
		}
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusBadGateway, http.StatusServiceUnavailable:
			// 502 is the router's transport-failure signal: the backend
			// may or may not have acted, which is exactly what the
			// idempotency key exists to absorb.
			return true
		}
		return false
	}
	return err != nil
}

// retrySafeResponse reports whether err is an error *response* proving the
// server did not act: 429 and 503 are refusals issued before any state
// change, so even a non-idempotent request may retry them. A transport
// failure is ambiguous — the server may have acted and only the response
// was lost — and is never retried under this policy.
func retrySafeResponse(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) &&
		(ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable)
}

// maxRetriedIDs bounds the retried-request-ID window Stats surfaces.
const maxRetriedIDs = 64

// Stats is the client's view of a retry loop's work.
type Stats struct {
	Requests int64 // HTTP attempts issued
	Retries  int64 // attempts beyond the first
	Replays  int64 // event posts retried under their idempotency key
	SleptNS  int64 // total backoff requested
	// RetriedIDs are the X-Request-IDs of the most recent event posts
	// (up to maxRetriedIDs) that needed at least one retry — the handle
	// for correlating a client-side retry with the server's flight
	// recorder, where every attempt appears under the same id.
	RetriedIDs []string
}

// Client talks to one predserve instance with retries and idempotency.
// Safe for concurrent use; deterministic when driven sequentially.
type Client struct {
	opts Options
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand //predlint:guardedby mu

	seq      atomic.Uint64
	reqSeq   atomic.Uint64
	requests atomic.Int64
	retries  atomic.Int64
	replays  atomic.Int64
	sleptNS  atomic.Int64

	idsMu      sync.Mutex
	retriedIDs []string //predlint:guardedby idsMu

	// lastKeys maps a session id to the key of its last keyed post that
	// returned: the key the next post to the session acknowledges.
	ackMu    sync.Mutex
	lastKeys map[string]string //predlint:guardedby ackMu
}

// New builds a client for the server at opts.BaseURL.
func New(opts Options) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	h := opts.HTTP
	if h == nil {
		h = &http.Client{
			Timeout:   opts.Timeout,
			Transport: &http.Transport{DisableKeepAlives: true},
			// A redirect is returned, not followed: attempt() turns it
			// into a non-retryable *APIError.
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}
	return &Client{
		opts:     opts,
		http:     h,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		lastKeys: make(map[string]string),
	}
}

// Stats returns the cumulative retry-loop tallies.
//
//predlint:ignore testonly only the _perfbench harness calls it; ROADMAP's benchmark item deletes it
func (c *Client) Stats() Stats {
	c.idsMu.Lock()
	ids := append([]string(nil), c.retriedIDs...)
	c.idsMu.Unlock()
	return Stats{
		Requests:   c.requests.Load(),
		Retries:    c.retries.Load(),
		Replays:    c.replays.Load(),
		SleptNS:    c.sleptNS.Load(),
		RetriedIDs: ids,
	}
}

// noteRetriedID records a request id whose post needed a retry, keeping
// only the most recent maxRetriedIDs.
func (c *Client) noteRetriedID(id string) {
	c.idsMu.Lock()
	c.retriedIDs = append(c.retriedIDs, id)
	if len(c.retriedIDs) > maxRetriedIDs {
		c.retriedIDs = c.retriedIDs[len(c.retriedIDs)-maxRetriedIDs:]
	}
	c.idsMu.Unlock()
}

// backoff returns the jittered wait before retry attempt n (0-based):
// uniform in [d/2, d] for d = min(baseBackoff<<n, maxBackoff), so waits
// grow but two consecutive retries never synchronize exactly.
func (c *Client) backoff(n int) time.Duration {
	d := baseBackoff << uint(n)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	half := int64(d / 2)
	c.mu.Lock()
	j := c.rng.Int63n(half + 1)
	c.mu.Unlock()
	return time.Duration(half + j)
}

func (c *Client) sleep(d time.Duration) {
	c.sleptNS.Add(int64(d))
	if c.opts.Sleep != nil {
		c.opts.Sleep(d)
		return
	}
	time.Sleep(d)
}

// NextIdempotencyKey mints the key the next keyless PostEvents would use:
// seed-scoped and sequence-numbered, so a replayed run reissues the same
// keys in the same order.
func (c *Client) NextIdempotencyKey() string {
	return fmt.Sprintf("%016x-%d", uint64(c.opts.Seed), c.seq.Add(1))
}

// nextRequestID mints the X-Request-ID for one logical event post: seed-
// scoped like the idempotency key (the "-r" infix keeps the two spaces
// apart) and stable across every retry of the post, so all of a batch's
// attempts coalesce under one id in the server's flight recorder.
func (c *Client) nextRequestID() string {
	return fmt.Sprintf("%016x-r%d", uint64(c.opts.Seed), c.reqSeq.Add(1))
}

// postIDs are the headers that name one logical event post, sent the
// same on every attempt: its Idempotency-Key, the Idempotency-Ack of the
// key it acknowledges, and its X-Request-ID. Empty ones are not sent; the
// zero value names no post.
type postIDs struct{ key, ack, reqID string }

// do runs one retrying request under the given retry policy (Retryable
// for idempotent requests, retrySafeResponse for non-idempotent ones),
// sending ids on every attempt — the SAME ids, by design. The response
// body (for 2xx) is returned whole.
func (c *Client) do(method, path string, body []byte, contentType, accept string, ids postIDs, retry func(error) bool) ([]byte, error) {
	url := c.opts.BaseURL + path
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > c.opts.MaxRetries {
				return nil, fmt.Errorf("client: %s %s: retries exhausted after %d attempts: %w",
					method, path, attempt, lastErr)
			}
			c.retries.Add(1)
			if ids.key != "" {
				c.replays.Add(1)
			}
			if ids.reqID != "" && attempt == 1 {
				c.noteRetriedID(ids.reqID)
			}
			c.sleep(c.backoff(attempt - 1))
		}
		c.requests.Add(1)
		resp, err := c.attempt(method, url, body, contentType, accept, ids)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retry(err) {
			return nil, err
		}
	}
}

func (c *Client) attempt(method, url string, body []byte, contentType, accept string, ids postIDs) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ids.key != "" {
		req.Header.Set("Idempotency-Key", ids.key)
	}
	if ids.ack != "" {
		req.Header.Set("Idempotency-Ack", ids.ack)
	}
	if ids.reqID != "" {
		req.Header.Set("X-Request-ID", ids.reqID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		var er serve.ErrorResponse
		msg := string(data)
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &APIError{Status: resp.StatusCode, Code: er.Code, Message: msg}
	}
	return data, nil
}

// readBody reads a response body into one buffer sized from its
// Content-Length. The size is trusted up to the largest legal COHWIRE1
// reply; a header claiming more gets a buffer that grows only as the
// bytes arrive.
func readBody(resp *http.Response) ([]byte, error) {
	return serve.ReadBody(nil, resp.Body, resp.ContentLength, int64(serve.MaxWireReplyBytes))
}

func (c *Client) doJSON(method, path string, reqBody, out interface{}, ids postIDs, retry func(error) bool) error {
	var body []byte
	if reqBody != nil {
		b, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		body = b
	}
	data, err := c.do(method, path, body, "application/json", "", ids, retry)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// CreateSession creates a session. Creation is not idempotent (each
// success mints a new session), so it retries only error responses that
// prove the server did nothing — 429 (session limit) and 503 (draining).
// A transport failure is ambiguous (the server may have created the
// session before the response was lost) and returns the error instead of
// risking a duplicate session.
func (c *Client) CreateSession(req serve.CreateSessionRequest) (*serve.CreateSessionResponse, error) {
	var out serve.CreateSessionResponse
	if err := c.doJSON(http.MethodPost, "/v1/sessions", &req, &out, postIDs{}, retrySafeResponse); err != nil {
		return nil, err
	}
	return &out, nil
}

// PostEvents posts a batch under a fresh idempotency key, retrying until
// it is acknowledged: the engine trains on the batch exactly once no
// matter how many responses were lost on the way.
func (c *Client) PostEvents(id string, evs []serve.EventRequest) ([]uint64, error) {
	return c.PostEventsKeyed(id, c.NextIdempotencyKey(), evs)
}

// PostEventsKeyed is PostEvents under a caller-chosen idempotency key
// (replays across client restarts use the same key). With Options.Binary
// set it posts a COHWIRE1 frame, otherwise JSON.
func (c *Client) PostEventsKeyed(id, key string, evs []serve.EventRequest) ([]uint64, error) {
	// One id per logical post: it survives every retry, so the whole
	// saga is one thread server-side.
	return c.PostEventsKeyedID(id, key, c.nextRequestID(), evs)
}

// PostEventsKeyedID is PostEventsKeyed under a caller-chosen request ID
// as well. Trace replay uses it to resend a recorded stream with its
// original request IDs, so a replayed run is indistinguishable from the
// recorded one in the server's flight recorder.
//
// The post acknowledges the key of the last keyed post to the session
// that returned, unless that is key itself, so a deliberate re-post of a
// key replays; once this post returns, its key is the one the next post
// acknowledges.
func (c *Client) PostEventsKeyedID(id, key, reqID string, evs []serve.EventRequest) ([]uint64, error) {
	path := "/v1/sessions/" + id + "/events"
	ids := postIDs{key: key, ack: c.ackFor(id, key), reqID: reqID}
	var preds []uint64
	var err error
	if c.opts.Binary {
		preds, err = c.postEventsWire(path, ids, evs)
	} else {
		if evs == nil {
			evs = []serve.EventRequest{} // [], where nil would marshal as null
		}
		var out serve.EventsResponse
		err = c.doJSON(http.MethodPost, path, evs, &out, ids, Retryable)
		preds = out.Predictions
	}
	if err != nil {
		return nil, err
	}
	if key != "" {
		c.ackMu.Lock()
		c.lastKeys[id] = key
		c.ackMu.Unlock()
	}
	return preds, nil
}

// ackFor returns the key a post under key to session id acknowledges:
// the last keyed post to id that returned, unless that is key itself.
func (c *Client) ackFor(id, key string) string {
	c.ackMu.Lock()
	defer c.ackMu.Unlock()
	if last := c.lastKeys[id]; last != key {
		return last
	}
	return ""
}

// postEventsWire posts the batch as a COHWIRE1 frame and decodes the
// binary reply.
func (c *Client) postEventsWire(path string, ids postIDs, evs []serve.EventRequest) ([]uint64, error) {
	body := serve.AppendWireBatch(nil, evs) // sized once, exactly
	data, err := c.do(http.MethodPost, path, body, serve.ContentTypeWire, serve.ContentTypeWire, ids, Retryable)
	if err != nil {
		return nil, err
	}
	if !serve.IsWireFrame(data) {
		return nil, fmt.Errorf("client: wire post got a non-wire reply body")
	}
	preds, err := serve.DecodeWireReplyInto(data, []uint64(nil))
	if err != nil {
		return nil, fmt.Errorf("client: decoding wire reply: %w", err)
	}
	if preds == nil {
		preds = []uint64{}
	}
	return preds, nil
}

// Stats fetches the session's screening statistics.
func (c *Client) SessionStats(id string) (*serve.StatsResponse, error) {
	var out serve.StatsResponse
	if err := c.doJSON(http.MethodGet, "/v1/sessions/"+id+"/stats", nil, &out, postIDs{}, Retryable); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot returns the session's binary snapshot, taken between two of
// its posts.
//
//predlint:ignore testonly the client session API is the library's user surface
func (c *Client) Snapshot(id string) ([]byte, error) {
	return c.do(http.MethodGet, "/v1/sessions/"+id+"/snapshot", nil, "", "", postIDs{}, Retryable)
}

// Restore creates session id from a binary snapshot; shards > 0 is sent
// as the ?shards= query, which the server range-checks and otherwise
// ignores. Like CreateSession it retries only provably
// state-free refusals (429, 503): a blind retry of a PUT whose response
// was lost would turn the success into a spurious 409, so a transport
// failure surfaces as-is.
//
//predlint:ignore testonly the client session API is the library's user surface
func (c *Client) Restore(id string, snap []byte, shards int) (*serve.CreateSessionResponse, error) {
	path := "/v1/sessions/" + id + "/snapshot"
	if shards > 0 {
		path += "?shards=" + strconv.Itoa(shards)
	}
	data, err := c.do(http.MethodPut, path, snap, "application/octet-stream", "", postIDs{}, retrySafeResponse)
	if err != nil {
		return nil, err
	}
	var out serve.CreateSessionResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("client: decoding restore response: %w", err)
	}
	return &out, nil
}

// DeleteSession drains and removes the session (404 after a successful
// delete retry is treated as success — the delete happened), and forgets
// the key its next post would have acknowledged.
//
//predlint:ignore testonly the client session API is the library's user surface
func (c *Client) DeleteSession(id string) error {
	c.ackMu.Lock()
	delete(c.lastKeys, id)
	c.ackMu.Unlock()
	err := c.doJSON(http.MethodDelete, "/v1/sessions/"+id, nil, nil, postIDs{}, Retryable)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		return nil
	}
	return err
}
