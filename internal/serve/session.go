package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/flight"
	"cohpredict/internal/metrics"
	"cohpredict/internal/trace"
)

// Session limits and defaults. A session's queue is bounded in events:
// admission reserves slots for a whole batch or rejects it outright
// (ErrBacklog → 429), so a batch is never half-enqueued. An admitted post
// then waits for the session's table lock and runs its events under it.
const (
	DefaultBatchSize  = 256
	DefaultMaxPending = 1 << 14
	MaxBatchEvents    = 1 << 16
	maxShards         = 64

	// maxIdemKeys bounds the per-session idempotency cache (FIFO
	// eviction); maxIdemKeyLen bounds one key.
	maxIdemKeys   = 1024
	maxIdemKeyLen = 128
)

// DefaultFlushMicros was the micro-batch flush deadline.
//
// Deprecated: posts run as they arrive; SessionConfig.Flush has no
// effect.
//
//predlint:ignore testonly only the _perfbench harness calls it; ROADMAP's benchmark item deletes it
const DefaultFlushMicros = 200

// ErrBacklog is returned when a batch would overflow the session's bounded
// queue; the HTTP layer maps it to 429 Too Many Requests.
var ErrBacklog = errors.New("serve: session queue full")

// ErrDraining is returned once a session has begun draining; the HTTP
// layer maps it to 503 Service Unavailable.
var ErrDraining = errors.New("serve: session draining")

// ErrInjected is returned when the chaos injector drops a batch at queue
// admission; the HTTP layer maps it to 503 (retryable — nothing was
// trained).
var ErrInjected = errors.New("serve: injected fault: batch dropped")

// ErrShardFailed wraps a panic in the predictor kernel. The failure is
// permanent — the session is poisoned and every later post fails the
// same way — so the HTTP layer tags responses carrying it with
// CodeShardFailed and clients give up instead of retrying.
var ErrShardFailed = errors.New("serve: session kernel failed")

// ErrKeyAcknowledged refuses a post under an idempotency key whose reply
// the client has acknowledged (Idempotency-Ack): the cache kept the key
// but not the reply, so the post can be neither replayed nor trained
// again. The HTTP layer maps it to 409 with CodeKeyAcknowledged.
var ErrKeyAcknowledged = errors.New("serve: idempotency key already acknowledged")

// SessionConfig parameterises a session (the JSON create request mirrors
// it; zero values take the defaults above).
type SessionConfig struct {
	Scheme  core.Scheme
	Machine core.Machine
	// Shards is range-checked and otherwise ignored: a session runs one
	// table, and Config reports 1. The _perfbench harness still sets it.
	Shards int
	// BatchSize is range-checked, kept and reported, and has no other
	// effect: a post runs its events as they arrive.
	BatchSize int
	// Deprecated: Flush has no effect; Config reports it as zero. The
	// _perfbench harness still sets it.
	Flush time.Duration
	// MaxPending bounds the events admitted but not yet processed.
	MaxPending int
	// Fault, when non-nil, injects chaos at the session's fault points
	// (queue-admission drops, post delays and kernel panics).
	Fault *fault.Injector
	// Record, when non-nil, captures every batch that trains the engine
	// (after the kernel, before the response) for COHTRACE1 replay.
	// Idempotent cache replays never reach it.
	Record EventRecorder
}

func (c *SessionConfig) fillDefaults() error {
	m := c.Machine
	if err := c.Scheme.ValidateOn(m); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > maxShards {
		return fmt.Errorf("serve: shard count %d out of range [0,%d]", c.Shards, maxShards)
	}
	c.Shards = 1
	if c.BatchSize < 0 || c.BatchSize > MaxBatchEvents {
		return fmt.Errorf("serve: batch size %d out of range [0,%d]", c.BatchSize, MaxBatchEvents)
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	c.Flush = 0
	if c.MaxPending < 0 || c.MaxPending > 1<<20 {
		return fmt.Errorf("serve: max pending %d out of range [0,%d]", c.MaxPending, 1<<20)
	}
	if c.MaxPending == 0 {
		c.MaxPending = DefaultMaxPending
	}
	return nil
}

// idemEntry is one idempotency-cache slot. The winner of a key closes done
// after filling frame — the post's encoded COHWIRE1 reply, sized to fit,
// whose bytes are never written again — or err. A winner that trains
// completes its entry before it releases the table lock, so a snapshot,
// which holds that lock, takes exactly the keys whose events its table
// holds. Duplicates wait on done and serve those bytes without
// re-training the engine. An acknowledgement (Session.acknowledge) later
// drops a successful entry's frame, under the session's idemMu, and a
// duplicate is then refused; so frame is read under idemMu too. (This
// rule is a comment, not a guardedby mark: predlint's guardedby names a
// sibling mutex.)
type idemEntry struct {
	done  chan struct{}
	frame []byte
	err   error
}

// complete caches the winner's reply frame for preds, encoded once at
// its exact size, and releases the key's duplicates; it returns the
// frame. A nil entry (an unkeyed post) returns nil.
func (e *idemEntry) complete(preds []bitmap.Bitmap, st *flight.Record) []byte {
	if e == nil {
		return nil
	}
	frame := encodeReply(nil, preds, st)
	e.frame = frame
	close(e.done)
	return frame
}

// completed reports whether the entry's winner has finished: done is
// closed, err is final, and frame is safe to read under idemMu.
func (e *idemEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Session hosts one live prediction engine behind the API: one predictor
// table, read and trained in request order under tableMu, as eval.Apply
// runs it offline. A post runs on its caller's goroutine; a session
// starts none.
//
// A restored session starts dormant: it holds its snapshot's bytes and
// its config, and no table, until its first use through the server
// (wake) builds the table from the bytes and drops them.
type Session struct {
	ID  string
	cfg SessionConfig

	mu      sync.Mutex
	pending int    //predlint:guardedby mu
	closing bool   //predlint:guardedby mu
	snap    []byte //predlint:guardedby mu
	reqs    sync.WaitGroup

	tableMu sync.Mutex
	eng     engine //predlint:guardedby tableMu

	// Tallies restored from a snapshot; added on top of the engine's
	// tallies by Stats (restored history lives in the table, but the
	// scores that produced it belong to the pre-restore run).
	baseConf   metrics.Confusion
	baseEvents uint64

	// Idempotency cache: key → completed (or in-flight) batch result, in
	// FIFO insertion order for eviction.
	idemMu    sync.Mutex
	idem      map[string]*idemEntry //predlint:guardedby idemMu
	idemOrder []string              //predlint:guardedby idemMu

	om *serveMetrics
}

// engine is a session's predictor: its table and the tallies of what it
// scored. A Session guards it with tableMu.
type engine struct {
	update core.UpdateMode
	keyer  core.Keyer
	nodes  int
	table  *core.FlatTable // nil until the session is built
	conf   metrics.Confusion
	events uint64
	// fail poisons the session once a post panics in the kernel.
	fail error
}

// NewSession validates the config and builds the session's table.
func NewSession(id string, cfg SessionConfig, om *serveMetrics) (*Session, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := newSession(id, cfg, om)
	_ = s.build(nil, nil) // only a snapshot's import can fail
	return s, nil
}

// newSession returns a session of a checked config with no table: build
// adds it.
func newSession(id string, cfg SessionConfig, om *serveMetrics) *Session {
	if om == nil {
		om = newServeMetrics(nil)
	}
	return &Session{
		ID:  id,
		cfg: cfg,
		eng: engine{
			update: cfg.Scheme.Update,
			keyer:  cfg.Scheme.Index.Keyer(cfg.Machine),
			nodes:  cfg.Machine.Nodes,
		},
		idem: make(map[string]*idemEntry),
		om:   om,
	}
}

// build gives the session its table. With a snapshot, the table is
// filled from its entries first, and the session takes extra's
// idempotency cache; its tallies were taken when it was restored. On
// error the session keeps no table.
func (s *Session) build(snap *eval.Snapshot, extra *sessionExtra) error {
	table := core.NewTable(s.cfg.Scheme, s.cfg.Machine)
	if snap != nil {
		if err := snap.Restore(table); err != nil {
			return err
		}
		if extra.idem != nil {
			s.idemMu.Lock()
			s.idem, s.idemOrder = extra.idem, extra.order
			s.idemMu.Unlock()
		}
	}
	s.tableMu.Lock()
	s.eng.table = table
	s.tableMu.Unlock()
	return nil
}

// wake builds a dormant session from its snapshot bytes and drops them.
// Every request's lookup of a session wakes it (Server.session), so a
// session is built on its first use, once: racing first uses meet on mu,
// and the ones that follow the first find it built. A closing session,
// dormant or not, answers ErrDraining, as admit would; one closed while
// dormant is never built.
func (s *Session) wake() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrDraining
	}
	if s.snap == nil {
		return nil
	}
	// The bytes passed every check of the restore that kept them, so
	// none of these steps fails short of a defect.
	snap, err := eval.DecodeSnapshot(s.snap)
	var extra *sessionExtra
	if err == nil {
		extra, err = decodeSessionExtra(snap.Extra, true)
	}
	if err == nil {
		err = s.build(snap, extra)
	}
	if err != nil {
		return fmt.Errorf("serve: waking session %s: %w", s.ID, err)
	}
	s.om.wakes.Inc()
	s.om.dormant(-1, -len(s.snap))
	s.snap = nil
	return nil
}

// Config returns the session's effective (default-filled) configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// admit reserves queue slots for n events, or reports why it cannot. The
// chaos drop point sits here: a dropped batch is refused before any slot
// is reserved, so nothing is trained and the client's retry is safe.
func (s *Session) admit(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrDraining
	}
	if s.cfg.Fault.Drop("queue.admit") {
		return ErrInjected
	}
	if s.pending+n > s.cfg.MaxPending {
		return ErrBacklog
	}
	s.pending += n
	s.reqs.Add(1)
	return nil
}

func (s *Session) release(n int) {
	s.mu.Lock()
	s.pending -= n
	s.mu.Unlock()
	s.reqs.Done()
}

// PostInto ingests a batch of events in order and writes the predicted
// sharing bitmap for each, writer-masked, exactly as eval.Engine.Step
// would, into preds, which must have length len(evs). It returns once
// every event has been processed and scored, so a successful return
// means the batch is fully reflected in Stats.
//
//predlint:ignore testonly only the _perfbench harness calls it; ROADMAP's benchmark item deletes it
func (s *Session) PostInto(evs []trace.Event, preds []bitmap.Bitmap) error {
	_, err := s.post(evs, preds, nil, nil)
	return err
}

// post admits evs, then runs them through the table under tableMu on the
// caller's goroutine, stamping st (which may be nil: untraced). Each
// admitted post draws the chaos delay point once, before the lock, and
// the panic point once, under it. With e, a keyed post's cache entry,
// the reply frame is encoded and e completed before the lock is
// released, and post returns the frame.
func (s *Session) post(evs []trace.Event, preds []bitmap.Bitmap, st *flight.Record, e *idemEntry) ([]byte, error) {
	if len(evs) > MaxBatchEvents {
		return nil, fmt.Errorf("serve: batch of %d events exceeds limit %d", len(evs), MaxBatchEvents)
	}
	if len(preds) != len(evs) {
		return nil, fmt.Errorf("serve: %d prediction slots for %d events", len(preds), len(evs))
	}
	if len(evs) == 0 {
		return e.complete(preds, st), nil
	}
	if err := s.admit(len(evs)); err != nil {
		return nil, err
	}
	defer s.release(len(evs))
	s.om.queueDepth.Add(float64(len(evs)))
	defer s.om.queueDepth.Add(-float64(len(evs)))
	st.SetEnqueue(flight.Nanos())
	if d := s.cfg.Fault.Delay("post.delay"); d > 0 {
		st.MarkFault(flight.FaultDelay)
		time.Sleep(d)
	}

	var frame []byte
	s.tableMu.Lock()
	err := s.eng.run(evs, preds, st, s.cfg.Fault, s.om)
	if err == nil {
		frame = e.complete(preds, st)
	}
	s.tableMu.Unlock()
	if err != nil {
		return nil, err
	}
	// Record only what trained cleanly: a failed post is retried by the
	// client and would otherwise appear twice in the trace. evs is not
	// retained past this call (recorder contract).
	if s.cfg.Record != nil {
		s.cfg.Record.RecordEvents(s.ID, st.ID(), evs)
	}
	return frame, nil
}

// run applies evs to the table in order and scores them; the caller
// holds tableMu. A panic in the kernel, real or injected, poisons the
// session: run recovers it, and this post and every later one fail with
// ErrShardFailed. The clock reads (flight.Nanos, the allowlisted clock)
// feed the trace record and the busy-ns counter only, never results.
func (g *engine) run(evs []trace.Event, preds []bitmap.Bitmap, st *flight.Record, flt *fault.Injector, om *serveMetrics) (err error) {
	start := flight.Nanos()
	if g.fail != nil {
		return g.fail
	}
	defer func() {
		if r := recover(); r != nil {
			g.fail = fmt.Errorf("%w: post panicked: %v", ErrShardFailed, r)
			om.shardPanics.Inc()
			err = g.fail
		}
	}()
	if flt.PanicNow("post.panic") {
		//predlint:ignore panicfree injected chaos panic; recovered above
		panic("injected fault (site post.panic)")
	}
	g.process(evs, preds)
	busy := flight.Nanos() - start
	st.NoteExec(start, busy)
	om.eventsTotal.Add(int64(len(evs)))
	om.batchesTotal.Inc()
	om.batchSize.Observe(float64(len(evs)))
	om.shardBusyNS.Add(busy)
	return nil
}

// process applies evs to the table in request order and scores each
// prediction into the tallies. This is the serving hot path: one
// eval.Apply, one bitmap score, and one response-slot store per event —
// no allocation, locks, or atomics.
//
//predlint:hotpath
func (g *engine) process(evs []trace.Event, preds []bitmap.Bitmap) {
	for i := range evs {
		ev := &evs[i]
		pred := eval.Apply(g.update, &g.keyer, g.table, ev)
		g.conf.AddBitmaps(pred, ev.FutureReaders, g.nodes)
		preds[i] = pred
	}
	g.events += uint64(len(evs))
}

// postFrame posts evs and returns the COHWIRE1 reply frame: the one post
// the events route makes, for either encoding. An empty key posts once;
// any other goes through the idempotency cache (postKeyed). ack, when it
// names an earlier key, is acknowledged first. buf lends the pooled
// prediction slots and, for an unkeyed post, the output buffer the frame
// is encoded into, valid until buf goes back to the pool. A keyed post's
// frame is the idempotency cache's copy, which nobody writes to.
func (s *Session) postFrame(key, ack string, evs []trace.Event, buf *wireBuf, st *flight.Record) ([]byte, error) {
	if ack != "" && ack != key {
		s.acknowledge(ack)
	}
	if cap(buf.preds) < len(evs) {
		buf.preds = make([]bitmap.Bitmap, len(evs))
	}
	preds := buf.preds[:len(evs)]
	if key != "" {
		return s.postKeyed(key, evs, preds, st)
	}
	if _, err := s.post(evs, preds, st, nil); err != nil {
		return nil, err
	}
	buf.out = encodeReply(buf.out[:0], preds, st)
	return buf.out, nil
}

// encodeReply appends the reply frame for preds to dst, stamping the
// encode stage on st.
func encodeReply(dst []byte, preds []bitmap.Bitmap, st *flight.Record) []byte {
	t := flight.Nanos()
	dst = AppendWireReply(dst, preds)
	st.AddEncode(flight.Nanos() - t)
	return dst
}

// acknowledge drops the reply frame of key's entry once the client
// holds the reply, keeping the key, which refuses any later post under
// it. Only a completed, successful entry is acknowledged: an unknown
// key, an in-flight entry or a failed one is left as it is.
func (s *Session) acknowledge(key string) {
	s.idemMu.Lock()
	if e := s.idem[key]; e != nil && e.completed() && e.err == nil {
		e.frame = nil
	}
	s.idemMu.Unlock()
}

// postKeyed runs a keyed post through the idempotency cache. The first
// arrival of key trains the engine with preds (len(evs) caller-owned
// slots) as its response buffer, and post encodes the reply frame once
// at its exact size and caches it; a duplicate waits for the original and gets
// the same frame, marked a replay on st, its preds untouched, or
// ErrKeyAcknowledged once the key is acknowledged. A retryably-failed
// attempt releases the key so the retry can run.
func (s *Session) postKeyed(key string, evs []trace.Event, preds []bitmap.Bitmap, st *flight.Record) ([]byte, error) {
	if len(key) > maxIdemKeyLen {
		return nil, fmt.Errorf("serve: idempotency key of %d bytes exceeds limit %d", len(key), maxIdemKeyLen)
	}

	s.idemMu.Lock()
	if e, ok := s.idem[key]; ok {
		s.idemMu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		s.idemMu.Lock()
		frame := e.frame
		s.idemMu.Unlock()
		if frame == nil {
			return nil, ErrKeyAcknowledged
		}
		s.om.idemHits.Inc()
		st.MarkReplay()
		return frame, nil
	}
	e := &idemEntry{done: make(chan struct{})}
	s.idem[key] = e
	s.idemOrder = append(s.idemOrder, key)
	if len(s.idemOrder) > maxIdemKeys {
		// Evict the oldest *completed* entry. An entry still in flight
		// must survive: evicting it would let a concurrent retry of the
		// same key win the map slot and train the batch a second time.
		// If every entry is in flight the cache briefly exceeds the cap
		// instead (bounded by the number of concurrent requests).
		for i, k := range s.idemOrder {
			if s.idem[k].completed() {
				delete(s.idem, k)
				s.idemOrder = append(s.idemOrder[:i], s.idemOrder[i+1:]...)
				break
			}
		}
	}
	s.idemMu.Unlock()

	frame, err := s.post(evs, preds, st, e)
	if err != nil {
		if errors.Is(err, ErrShardFailed) {
			// Permanent: every retry fails identically. Keep the entry
			// with the recorded error so a replay of this key fails fast
			// without touching the engine.
			e.err = err
			close(e.done)
			return nil, err
		}
		// Nothing was trained (drops and backlog refuse before the
		// lock): release the key so the client's retry re-runs instead
		// of replaying an error.
		s.idemMu.Lock()
		if s.idem[key] == e {
			delete(s.idem, key)
			for i, k := range s.idemOrder {
				if k == key {
					s.idemOrder = append(s.idemOrder[:i], s.idemOrder[i+1:]...)
					break
				}
			}
		}
		s.idemMu.Unlock()
		e.err = err
		close(e.done)
		return nil, err
	}
	return frame, nil
}

// Stats is a session's aggregated state: exact once every Post has
// returned, and never partway through one.
type Stats struct {
	Confusion    metrics.Confusion
	Events       uint64
	TableEntries uint64
	// IdemKeys counts the idempotency cache's keys, and IdemReplyBytes
	// the reply frames it holds for them.
	IdemKeys       int
	IdemReplyBytes int
}

// Stats adds the engine's tallies to any snapshot-restored baseline, and
// measures the idempotency cache.
func (s *Session) Stats() Stats {
	st := Stats{Confusion: s.baseConf, Events: s.baseEvents}
	s.tableMu.Lock()
	st.Confusion.Merge(s.eng.conf)
	st.Events += s.eng.events
	if s.eng.table != nil {
		st.TableEntries = uint64(s.eng.table.Entries())
	}
	s.tableMu.Unlock()
	s.idemMu.Lock()
	st.IdemKeys = len(s.idemOrder)
	for _, k := range s.idemOrder {
		if e := s.idem[k]; e.completed() {
			st.IdemReplyBytes += len(e.frame)
		}
	}
	s.idemMu.Unlock()
	return st
}

// failure returns the kernel panic that poisoned the session, if any.
func (s *Session) failure() error {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	return s.eng.fail
}

// Close drains the session: new posts are refused with ErrDraining, and
// in-flight posts run to completion (their events processed and scored).
// Safe to call more than once; every call returns only after the drain
// has finished. The returned error surfaces a kernel panic (injected or
// real) that occurred at any point in the session's life — drain must
// not swallow it.
func (s *Session) Close() error {
	s.mu.Lock()
	s.closing = true
	if s.snap != nil {
		// Dormant: there is nothing to drain, and it is never built.
		s.om.dormant(-1, -len(s.snap))
		s.snap = nil
	}
	s.mu.Unlock()
	s.reqs.Wait()
	return s.failure()
}
