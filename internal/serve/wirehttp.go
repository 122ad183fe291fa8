package serve

// The HTTP face of COHWIRE1: content negotiation and the pooled request
// path. A binary events post flows through pooled buffers end to end —
// body bytes, decoded events, prediction slots, and the encoded reply all
// live in a per-request *wireBuf recycled through a sync.Pool — so the
// steady-state cost per event is the codec kernels plus the shard work.
// An idempotent post (every post the Go client sends) allocates one thing
// more: its reply frame at its exact size, which the idempotency cache
// keeps for replays; see Session.postFrame.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/flight"
	"cohpredict/internal/trace"
)

// wireBuf is one request's worth of reusable buffers. Slices are stored
// at whatever capacity they grew to; every use re-slices to length 0.
// A wireBuf has exactly one owner — the handler between Get and the
// deferred Put — so touching one after it returns to the pool is a
// goroutineown finding.
//
//predlint:owned
type wireBuf struct {
	body  []byte
	evs   []trace.Event
	preds []bitmap.Bitmap
	out   []byte
}

var wireBufs = sync.Pool{New: func() interface{} { return new(wireBuf) }}

// mediaType extracts the lower-cased media type from a Content-Type
// header, dropping parameters ("application/x-cohwire; v=1" → the type).
func mediaType(h string) string {
	if i := strings.IndexByte(h, ';'); i >= 0 {
		h = h[:i]
	}
	return strings.ToLower(strings.TrimSpace(h))
}

// wantsWire reports whether the request asked for a binary reply. The
// check is a substring match: Accept lists are short and the token is
// unambiguous, so full q-value parsing buys nothing here.
func wantsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeWire)
}

// writeWire sends a COHWIRE1 frame as the response body.
func writeWire(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeWire)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// handleEventsWire is the binary events path: the batch decoded straight
// into the pooled event structs the shard runs point at, the predictions
// stored into pooled slots, and the reply frame — pooled for an unkeyed
// post, the idempotency cache's own bytes for a keyed one — written as is.
func (s *Server) handleEventsWire(w http.ResponseWriter, r *http.Request, sess *Session, rec *flight.Record) error {
	buf := wireBufs.Get().(*wireBuf)
	defer wireBufs.Put(buf)

	body, err := readBody(buf.body, r, s.opts.MaxBodyBytes)
	buf.body = body[:0]
	if err != nil {
		return err
	}
	rec.SetBytesIn(len(body))
	t0 := flight.Nanos()
	evs, err := DecodeWireBatchInto(body, sess.cfg.Machine.Nodes, buf.evs[:0])
	rec.AddDecode(flight.Nanos() - t0)
	buf.evs = evs[:0]
	if err != nil {
		return httpErr(http.StatusBadRequest, fmt.Errorf("serve: decoding wire batch: %w", err))
	}
	s.om.wireRequests.Inc()
	rec.SetEvents(len(evs))
	return s.writeFrame(w, r, sess, evs, buf, rec)
}

// writeFrame posts evs and writes the COHWIRE1 reply, for either request
// encoding; buf is the caller's pooled wireBuf.
func (s *Server) writeFrame(w http.ResponseWriter, r *http.Request, sess *Session, evs []trace.Event, buf *wireBuf, rec *flight.Record) error {
	frame, err := sess.postFrame(r.Header.Get("Idempotency-Key"), evs, buf, rec)
	if err != nil {
		return err
	}
	rec.SetBytesOut(len(frame))
	writeWire(w, frame)
	return nil
}
