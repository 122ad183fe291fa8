package serve

// The events route's one pipeline, for both encodings: read the body
// into a pooled buffer, decode it into pooled event structs (a COHWIRE1
// batch with DecodeWireBatchInto, JSON with DecodeEventsInto), post it
// with Session.postFrame, and reply with the COHWIRE1 frame — or with that
// frame transcoded into the JSON EventsResponse when the request asked
// for COHWIRE1 neither in its Content-Type nor in its Accept. Body bytes,
// decoded events, prediction slots, the encoded reply and the flight
// record all live in a per-request *wireBuf recycled through a
// sync.Pool, so the steady-state cost of a COHWIRE1 post is the codec
// kernels plus the kernel's work. A keyed post (every post the Go client
// sends) allocates one thing more: its reply frame at its exact size,
// which the idempotency cache keeps for replays until the client
// acknowledges it (an Idempotency-Ack header on a later post names the
// key) or 1024 later keys evict it.

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
// at whatever capacity they grew to; every use re-slices to length 0,
// and flight.Recorder.Begin clears the record. A wireBuf has exactly one
// owner — the handler between Get and the deferred Put — so touching one
// after it returns to the pool is a goroutineown finding.
//
//predlint:owned
type wireBuf struct {
	body  []byte
	evs   []trace.Event
	preds []bitmap.Bitmap
	out   []byte
	rec   flight.Record
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

// events runs one events post through the pipeline and returns its
// reply whole, with its content type; it writes nothing. The reply lives
// in buf or in the idempotency cache. Along the way it stamps the flight
// record: byte sizes, event count, and the decode and encode stage times
// (queue and exec are stamped below, in the session). A content type
// other than COHWIRE1 or JSON is refused with 415.
func (s *Server) events(r *http.Request, buf *wireBuf, rec *flight.Record) (ctype string, reply []byte, err error) {
	sess, err := s.session(r)
	if err != nil {
		return "", nil, err
	}
	rec.SetSession(sess.ID)
	wire := false
	switch ct := mediaType(r.Header.Get("Content-Type")); ct {
	case ContentTypeWire:
		wire = true
	case "", "application/json", "application/x-www-form-urlencoded":
		// form-urlencoded is curl's -d default; the body is still JSON.
	default:
		return "", nil, httpErr(http.StatusUnsupportedMediaType,
			fmt.Errorf("serve: unsupported content type %q (want application/json or %s)", ct, ContentTypeWire))
	}
	body, err := readBody(buf.body, r, MaxBodyBytes)
	buf.body = body[:0]
	if err != nil {
		return "", nil, err
	}
	rec.SetBytesIn(len(body))

	t := flight.Nanos()
	var evs []trace.Event
	if wire {
		evs, err = DecodeWireBatchInto(body, sess.cfg.Machine.Nodes, buf.evs[:0])
		if err != nil {
			err = fmt.Errorf("serve: decoding wire batch: %w", err)
		}
	} else {
		evs, err = DecodeEventsInto(body, sess.cfg.Machine.Nodes, buf.evs[:0])
	}
	buf.evs = evs[:0]
	rec.AddDecode(flight.Nanos() - t)
	if err != nil {
		return "", nil, httpErr(http.StatusBadRequest, err)
	}
	if wire {
		s.om.wireRequests.Inc()
	}
	rec.SetEvents(len(evs))

	frame, err := sess.postFrame(r.Header.Get("Idempotency-Key"), r.Header.Get("Idempotency-Ack"), evs, buf, rec)
	if err != nil {
		return "", nil, err
	}
	ctype, reply = ContentTypeWire, frame
	if !wire && !wantsWire(r) {
		// A replay's predictions are only in its frame, so every JSON
		// reply is read back from the frame it transcodes.
		t := flight.Nanos()
		preds, err := DecodeWireReplyInto(frame, buf.preds[:0])
		buf.preds = preds[:0]
		if err != nil {
			return "", nil, err
		}
		buf.out = appendEventsJSON(buf.out[:0], preds)
		rec.AddEncode(flight.Nanos() - t)
		ctype, reply = "application/json", buf.out
	}
	rec.SetBytesOut(len(reply))
	return ctype, reply, nil
}

// appendEventsJSON appends the JSON reply for preds to dst: the bytes
// json.Marshal writes for EventsResponse{len(preds), preds}, with [] for
// an empty batch.
func appendEventsJSON(dst []byte, preds []bitmap.Bitmap) []byte {
	dst = append(dst, `{"events":`...)
	dst = strconv.AppendInt(dst, int64(len(preds)), 10)
	dst = append(dst, `,"predictions":[`...)
	for i, p := range preds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(p), 10)
	}
	return append(dst, "]}"...)
}
