package traffic

// Replay drives a recorded COHTRACE1 stream back through a live server:
// same sessions, same batching, same request IDs, in the recorded total
// order. Because a session's batches replay serially in their recorded
// order, the served predictions and final confusion are byte-identical
// to the original run — the record/replay analogue of
// the offline-equivalence guarantee, and the property the headline
// chaos-replay test pins.

import (
	"fmt"
	"slices"
	"time"

	"cohpredict/internal/client"
	"cohpredict/internal/flight"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// APIEvents returns a copy of evs in the API's event form, which is
// trace.Event itself: callers that post a trace's events pass them
// directly, and this copy is for a caller that wants its posting slices
// apart from the trace.
//
//predlint:ignore testonly only the _perfbench harness calls it; ROADMAP's benchmark item deletes it
func APIEvents(evs []trace.Event) []serve.EventRequest {
	return slices.Clone(evs)
}

// ReplayOptions configures a replay run.
type ReplayOptions struct {
	// BaseURL is the target server root.
	BaseURL string
	// Binary posts COHWIRE1 frames; false posts JSON.
	Binary bool
	// Seed seeds the client (request-ID minting for control calls).
	Seed int64
	// Paced sleeps requests to their recorded arrival offsets instead of
	// replaying as fast as the server accepts.
	Paced bool
}

// ReplaySession is one recorded session's replay outcome.
type ReplaySession struct {
	ID          string               // server-assigned session ID
	Scheme      string               // recorded scheme
	Predictions []uint64             // served predictions, in recorded order
	Stats       *serve.StatsResponse // final confusion counters
}

// ReplayResult is the full outcome of replaying one trace.
type ReplayResult struct {
	Sessions []ReplaySession // indexed by recorded session sequence
	Requests int
	Events   int
}

// Replay posts a decoded trace to the server in recorded order and
// returns each session's served predictions and final stats. Posts are
// serial — replay exists to reproduce a training stream exactly, not to
// generate load (Run does that).
func Replay(recs []TraceRecord, opts ReplayOptions) (*ReplayResult, error) {
	c := client.New(client.Options{
		BaseURL: opts.BaseURL,
		Seed:    opts.Seed,
		Binary:  opts.Binary,
	})
	res := &ReplayResult{}
	start := flight.Nanos()
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case TraceKindSession:
			s := rec.Session
			resp, err := c.CreateSession(serve.CreateSessionRequest{
				Scheme:    s.Scheme,
				Nodes:     s.Nodes,
				LineBytes: s.LineBytes,
			})
			if err != nil {
				return nil, fmt.Errorf("traffic: replaying session %d: %w", s.Seq, err)
			}
			res.Sessions = append(res.Sessions, ReplaySession{ID: resp.ID, Scheme: s.Scheme})
		case TraceKindRequest:
			req := &rec.Request
			if int(req.Session) >= len(res.Sessions) {
				return nil, errTraceSessionRef
			}
			if opts.Paced {
				if wait := int64(req.ArrivalNS) - (flight.Nanos() - start); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
			}
			sess := &res.Sessions[req.Session]
			preds, err := c.PostEventsKeyedID(sess.ID, req.ID, req.ID, req.Events)
			if err != nil {
				return nil, fmt.Errorf("traffic: replaying request %q: %w", req.ID, err)
			}
			sess.Predictions = append(sess.Predictions, preds...)
			res.Requests++
			res.Events += len(req.Events)
		default:
			return nil, errTraceKind
		}
	}
	for i := range res.Sessions {
		stats, err := c.SessionStats(res.Sessions[i].ID)
		if err != nil {
			return nil, fmt.Errorf("traffic: reading replayed session stats: %w", err)
		}
		res.Sessions[i].Stats = stats
	}
	return res, nil
}
