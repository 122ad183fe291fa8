package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/fault"
	"cohpredict/internal/flight"
	"cohpredict/internal/metrics"
	"cohpredict/internal/trace"
)

// Session limits and defaults. A session's queue is bounded in events:
// admission reserves slots for a whole batch or rejects it outright
// (ErrBacklog → 429), so a batch is never half-enqueued. A post sends
// each shard at most one run, into a channel of DefaultShardBatch runs; a
// post that finds it full blocks in the send until the worker drains it.
const (
	DefaultShardBatch = 256
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
// Deprecated: shards flush whenever their queue is momentarily empty;
// SessionConfig.Flush has no effect.
const DefaultFlushMicros = 200

// ErrBacklog is returned when a batch would overflow the session's bounded
// queue; the HTTP layer maps it to 429 Too Many Requests.
var ErrBacklog = errors.New("serve: session queue full")

// ErrDraining is returned once a session has begun draining; the HTTP
// layer maps it to 503 Service Unavailable.
var ErrDraining = errors.New("serve: session draining")

// ErrSnapshotting is returned while a session is quiesced for a snapshot;
// the HTTP layer maps it to 503 (retryable — the session resumes).
var ErrSnapshotting = errors.New("serve: session snapshotting")

// ErrInjected is returned when the chaos injector drops a batch at queue
// admission; the HTTP layer maps it to 503 (retryable — nothing was
// trained).
var ErrInjected = errors.New("serve: injected fault: batch dropped")

// ErrShardFailed wraps a shard worker panic. The failure is permanent —
// the session is poisoned and every later post fails the same way — so
// the HTTP layer tags responses carrying it with CodeShardFailed and
// clients give up instead of retrying.
var ErrShardFailed = errors.New("serve: shard worker failed")

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
	// Shards is the engine-pool width. Sticky schemes are clamped to one
	// shard (see Router). Results are byte-identical at any value.
	Shards int
	// BatchSize is the micro-batch flush threshold per shard worker; a
	// partial batch flushes as soon as the shard's queue empties.
	BatchSize int
	// Deprecated: Flush has no effect; Config reports it as zero.
	Flush time.Duration
	// MaxPending bounds the events admitted but not yet processed.
	MaxPending int
	// Fault, when non-nil, injects chaos at the session's fault points
	// (queue-admission drops, shard delays and panics).
	Fault *fault.Injector
	// Record, when non-nil, captures every batch that trains the engine
	// (after the shards finish, before the response) for COHTRACE1
	// replay. Idempotent cache replays never reach it.
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
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.BatchSize < 0 || c.BatchSize > MaxBatchEvents {
		return fmt.Errorf("serve: batch size %d out of range [0,%d]", c.BatchSize, MaxBatchEvents)
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultShardBatch
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
// whose bytes are never written again — or err; duplicates wait on done
// and serve those bytes without re-training the engine. An
// acknowledgement (Session.acknowledge) later drops a successful entry's
// frame, under the session's idemMu, and a duplicate is then refused; so
// frame is read under idemMu too. (This rule is a comment, not a
// guardedby mark: predlint's guardedby names a sibling mutex.)
type idemEntry struct {
	done  chan struct{}
	frame []byte
	err   error
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

// Session hosts one live prediction engine behind the API: a router plus a
// pool of shard workers, each owning a disjoint partition of the predictor
// table (see Router for why the partition preserves serial semantics).
type Session struct {
	ID     string
	cfg    SessionConfig
	router Router
	shards []*shard

	mu       sync.Mutex
	pending  int  //predlint:guardedby mu
	closing  bool //predlint:guardedby mu
	quiesced bool //predlint:guardedby mu
	reqs     sync.WaitGroup
	closed   chan struct{}

	// Tallies restored from a snapshot; added on top of the shard-pool
	// tallies by Stats (restored history lives in the shard tables, but
	// the scores that produced it belong to the pre-restore run).
	baseConf   metrics.Confusion
	baseEvents uint64

	// Idempotency cache: key → completed (or in-flight) batch result, in
	// FIFO insertion order for eviction.
	idemMu    sync.Mutex
	idem      map[string]*idemEntry //predlint:guardedby idemMu
	idemOrder []string              //predlint:guardedby idemMu

	om *serveMetrics
}

// NewSession validates the config, builds the shard pool and starts its
// workers.
func NewSession(id string, cfg SessionConfig, om *serveMetrics) (*Session, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if om == nil {
		om = newServeMetrics(nil)
	}
	router := NewRouter(cfg.Scheme, cfg.Machine, cfg.Shards)
	cfg.Shards = router.Shards()
	s := &Session{
		ID:     id,
		cfg:    cfg,
		router: router,
		shards: make([]*shard, router.Shards()),
		closed: make(chan struct{}),
		idem:   make(map[string]*idemEntry),
		om:     om,
	}
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg.Scheme, cfg.Machine, cfg.BatchSize, cfg.Fault, om)
		go s.shards[i].run()
	}
	return s, nil
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
	if s.quiesced {
		return ErrSnapshotting
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

// Post ingests a batch of events in order and returns the predicted
// sharing bitmap for each, writer-masked, exactly as eval.Engine.Step
// would. Events are fanned out to the shard pool; Post returns only after
// every event has been processed and scored, so a successful return means
// the batch is fully reflected in Stats.
func (s *Session) Post(evs []trace.Event) ([]bitmap.Bitmap, error) {
	preds := make([]bitmap.Bitmap, len(evs))
	if err := s.postInto(evs, preds, nil); err != nil {
		return nil, err
	}
	return preds, nil
}

// PostInto is Post writing the predictions into caller-owned storage.
// preds must have length len(evs); the slots are the response buffer the
// shard workers store into, and they are safe to read (or recycle) once
// PostInto has returned.
func (s *Session) PostInto(evs []trace.Event, preds []bitmap.Bitmap) error {
	return s.postInto(evs, preds, nil)
}

// postInto is PostInto carrying a flight record: the enqueue instant is
// stamped after admission, and the record rides each run into the shard
// workers so the micro-batch loop can account queue-wait, batch-wait, and
// execute time to this request. st may be nil (untraced).
//
// The batch is routed once and split into one run per shard it touches;
// each run is a single channel send and a single WaitGroup.Done, so the
// dispatch cost is paid per (post, shard), not per event.
func (s *Session) postInto(evs []trace.Event, preds []bitmap.Bitmap, st *flight.Record) error {
	if len(evs) > MaxBatchEvents {
		return fmt.Errorf("serve: batch of %d events exceeds limit %d", len(evs), MaxBatchEvents)
	}
	if len(preds) != len(evs) {
		return fmt.Errorf("serve: %d prediction slots for %d events", len(preds), len(evs))
	}
	if len(evs) == 0 {
		return nil
	}
	if err := s.admit(len(evs)); err != nil {
		return err
	}
	defer s.release(len(evs))
	s.om.queueDepth.Add(float64(len(evs)))
	defer s.om.queueDepth.Add(-float64(len(evs)))

	st.SetEnqueue(flight.Nanos())
	p := posts.Get().(*post)
	p.evs, p.preds, p.st = evs, preds, st
	p.wg.Add(p.split(s.router))
	lo := int32(0)
	for k, hi := range p.ends[:len(s.shards)] {
		if hi > lo {
			s.shards[k].in <- op{p: p, run: p.pos[lo:hi]}
		}
		lo = hi
	}
	p.wg.Wait()
	p.evs, p.preds, p.st = nil, nil, nil // the pool must not pin request buffers
	posts.Put(p)
	if err := s.shardErr(); err != nil {
		return err
	}
	// Record only after the shards trained cleanly: a failed post is
	// retried by the client and would otherwise appear twice in the
	// trace. evs is not retained past this call (recorder contract).
	if s.cfg.Record != nil {
		s.cfg.Record.RecordEvents(s.ID, st.ID(), evs)
	}
	return nil
}

// post is one postInto call's dispatch state, pooled so a warm session
// dispatches without allocating. split fills the scratch; each shard
// worker reads evs, stores into preds and stamps st for its own run only,
// then releases the run with wg.Done. The posting goroutine owns a post
// from Get to Put and lends its runs to the workers until wg.Wait
// returns, so touching one after Put is a goroutineown finding.
//
//predlint:owned
type post struct {
	evs   []trace.Event
	preds []bitmap.Bitmap
	st    *flight.Record
	wg    sync.WaitGroup

	// Scratch grown to the largest batch seen: each event's shard, and
	// the event positions grouped by shard. After split, shard k's run is
	// pos[ends[k-1]:ends[k]], with ends[-1] taken as 0.
	route []uint8
	pos   []int32
	ends  [maxShards]int32
}

var posts = sync.Pool{New: func() interface{} { return new(post) }}

// split routes the post's events once and groups their positions by shard
// with a counting sort, so each shard's run keeps the request's order. It
// returns the number of non-empty runs. A single-shard router needs no
// routing: its one run is the whole batch.
//
//predlint:hotpath
func (p *post) split(r Router) int {
	n := len(p.evs)
	if cap(p.pos) < n {
		p.pos = make([]int32, n)
		p.route = make([]uint8, n)
	}
	pos := p.pos[:n]
	if r.Shards() == 1 {
		for i := range pos {
			pos[i] = int32(i)
		}
		p.ends[0] = int32(n)
		return 1
	}
	route, ends := p.route[:n], p.ends[:r.Shards()]
	clear(ends)
	for i := range p.evs {
		k := r.RouteEvent(&p.evs[i])
		route[i] = uint8(k)
		ends[k]++
	}
	// Counts become run starts; placing each event advances its shard's
	// cursor, which leaves ends[k] at the end of shard k's run.
	runs := 0
	var start int32
	for k, c := range ends {
		ends[k] = start
		start += c
		if c > 0 {
			runs++
		}
	}
	for i, k := range route {
		pos[ends[k]] = int32(i)
		ends[k]++
	}
	return runs
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
	if err := s.postInto(evs, preds, st); err != nil {
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
// slots) as its response buffer, encodes the reply frame once at its
// exact size and caches it; a duplicate waits for the original and gets
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

	if err := s.postInto(evs, preds, st); err != nil {
		if errors.Is(err, ErrShardFailed) {
			// Permanent: every retry fails identically, but its post would
			// still re-train the healthy shards' partitions first. Keep
			// the entry with the recorded error so a replay of this key
			// fails fast without touching the engine.
			e.err = err
			close(e.done)
			return nil, err
		}
		// Nothing was trained (drops and backlog refuse before enqueue):
		// release the key so the client's retry re-runs instead of
		// replaying an error.
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
	frame := encodeReply(nil, preds, st)
	e.frame = frame
	close(e.done)
	return frame, nil
}

// Stats is a session's aggregated (per-batch-published) state. While
// traffic is in flight the snapshot trails the queue by at most one
// micro-batch per shard; once every Post has returned it is exact.
type Stats struct {
	Confusion    metrics.Confusion
	Events       uint64
	TableEntries uint64
	Shards       []ShardStats
	// IdemKeys counts the idempotency cache's keys, and IdemReplyBytes
	// the reply frames it holds for them.
	IdemKeys       int
	IdemReplyBytes int
}

// ShardStats is the published view of one shard of the pool.
type ShardStats struct {
	Events       uint64 `json:"events"`
	TableEntries uint64 `json:"table_entries"`
	BusyNS       int64  `json:"busy_ns"`
}

// Stats merges the shard pool's published tallies on top of any
// snapshot-restored baseline, and measures the idempotency cache.
func (s *Session) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(s.shards))}
	st.Confusion = s.baseConf
	st.Events = s.baseEvents
	for i, sh := range s.shards {
		ss := sh.stats()
		st.Confusion.Merge(ss.conf)
		st.Events += ss.events
		st.TableEntries += ss.entries
		st.Shards[i] = ShardStats{Events: ss.events, TableEntries: ss.entries, BusyNS: ss.busyNS}
	}
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

// shardErr returns the first (by shard index) worker panic, if any.
func (s *Session) shardErr() error {
	for _, sh := range s.shards {
		if err := sh.failure(); err != nil {
			return err
		}
	}
	return nil
}

// quiesce stops admission (mode: ErrSnapshotting) and waits until the
// session is fully settled: every admitted batch processed and published,
// every idempotency entry completed. The caller may then read shard state
// directly — the reqs.Wait edge (worker wg.Done → Post wg.Wait → release
// reqs.Done → reqs.Wait) orders all worker table writes before the reads.
func (s *Session) quiesce() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrDraining
	}
	if s.quiesced {
		s.mu.Unlock()
		return ErrSnapshotting
	}
	s.quiesced = true
	s.mu.Unlock()

	s.reqs.Wait()
	// Idempotency bookkeeping happens after Post returns (after reqs.Done),
	// so entries may still be filling; wait for each.
	s.idemMu.Lock()
	pending := make([]*idemEntry, 0, len(s.idemOrder))
	for _, k := range s.idemOrder {
		pending = append(pending, s.idem[k])
	}
	s.idemMu.Unlock()
	for _, e := range pending {
		<-e.done
	}
	return nil
}

// resume re-opens admission after a snapshot.
func (s *Session) resume() {
	s.mu.Lock()
	s.quiesced = false
	s.mu.Unlock()
}

// Close drains the session: new posts are refused with ErrDraining,
// in-flight posts run to completion (their events processed and published),
// then the shard workers exit. Safe to call more than once; every call
// returns only after the drain has finished. The returned error surfaces
// a shard worker panic (injected or real) that occurred at any point in
// the session's life — drain must not swallow it.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.closed
		return s.shardErr()
	}
	s.closing = true
	s.mu.Unlock()

	s.reqs.Wait()
	for _, sh := range s.shards {
		close(sh.in)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	close(s.closed)
	return s.shardErr()
}
