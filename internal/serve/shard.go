package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
	"cohpredict/internal/flight"
	"cohpredict/internal/metrics"
)

// op is one post's run on one shard: the post's pooled dispatch state
// and the positions, in request order, of the post's events that route
// to this shard. A post sends at most one op per shard and never an
// empty one, so a shard holds at most one op per admitted post. The
// worker reads the run's events from p.evs, stores each prediction in
// p.preds, stamps p.st once per micro-batch, and releases the run with
// one p.wg.Done; that Done is its last touch of p and the happens-before
// edge for the poster to read the prediction slots.
type op struct {
	p   *post
	run []int32
}

// shard owns one partition of a session's predictor table and processes
// its runs strictly FIFO, each run's events in request order. The worker
// goroutine is the only writer of the table and the local tallies; after
// each micro-batch it publishes the tallies to atomics the stats endpoint
// reads, so the hot loop itself is free of atomics, locks, and
// allocation.
type shard struct {
	id     int
	update core.UpdateMode
	keyer  core.Keyer
	nodes  int
	table  *core.FlatTable

	in    chan op
	done  chan struct{}
	batch int

	// Worker-local state (owned by the worker goroutine).
	conf   metrics.Confusion
	events uint64
	cur    []op // batch being processed; released by recover on panic

	// fail is set (once, before the pending runs are released) if the
	// worker panics; Post and Close surface it.
	fail atomic.Value

	// Published per batch, read by stats.
	pubTP, pubFP, pubTN, pubFN atomic.Uint64
	pubEvents, pubEntries      atomic.Uint64
	pubBusyNS                  atomic.Int64

	flt                  *fault.Injector
	delaySite, panicSite string

	om *serveMetrics
}

// newShard builds a shard whose channel holds DefaultShardBatch runs,
// whatever the session's batch size and pending limit: a post that finds
// it full blocks in its send until the worker drains it, and the runtime
// hands a parked sender's run straight to fill's drain, so the bound
// costs neither batching nor order.
func newShard(id int, s core.Scheme, m core.Machine, batch int, flt *fault.Injector, om *serveMetrics) *shard {
	return &shard{
		id:        id,
		update:    s.Update,
		keyer:     s.Index.Keyer(m),
		nodes:     m.Nodes,
		table:     core.NewTable(s, m),
		in:        make(chan op, DefaultShardBatch),
		done:      make(chan struct{}),
		batch:     batch,
		flt:       flt,
		delaySite: fmt.Sprintf("shard%d.delay", id),
		panicSite: fmt.Sprintf("shard%d.panic", id),
		om:        om,
	}
}

// run is the shard worker: loop until the input channel closes or a panic
// escapes a batch. A panic does not kill the shard silently — loop's
// recover records it, releases every pending run (with zero predictions
// that Post never returns, see failure), and keeps consuming the queue so
// producers never stay blocked; Close surfaces the failure to the caller.
func (s *shard) run() {
	defer close(s.done)
	if s.loop() {
		// Panic path: the queue must keep draining until the session
		// closes it, or posts parked on a full channel would wedge.
		for o := range s.in {
			o.p.wg.Done()
		}
	}
}

// loop is the normal worker body: block for one run, micro-batch more
// until the batch holds the batch size in events or the queue momentarily
// empties, then process and publish. The worker never waits on a poster,
// so a shard with work queued is never idle. It returns true only when a
// panic was recovered (the channel may still be open).
func (s *shard) loop() (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			// Record the failure first: the Dones below release Post's
			// wg.Wait, and Post must observe the failure after it.
			s.fail.Store(fmt.Errorf("%w: shard %d worker panicked: %v", ErrShardFailed, s.id, r))
			s.om.shardPanics.Inc()
			for i := range s.cur {
				s.cur[i].p.wg.Done()
			}
			s.cur = nil
			panicked = true
		}
	}()
	// The batch buffer grows to the largest batch seen, so a session's
	// up-front cost does not scale with its batch size.
	var buf []op
	for {
		o, ok := <-s.in
		if !ok {
			return false
		}
		fillStart := flight.Nanos()
		buf = append(buf[:0], o)
		n, ok := s.fill(&buf, len(o.run))
		s.cur = buf
		s.flushBatch(fillStart, buf, n)
		s.cur = nil
		if !ok {
			return false
		}
	}
}

// failure returns the panic error that killed this shard's worker, if any.
func (s *shard) failure() error {
	if err, ok := s.fail.Load().(error); ok {
		return err
	}
	return nil
}

// fill collects whatever runs are immediately queued into buf until it
// holds the batch size in events; n is the count already aboard. A run is
// never split, so one large run is a micro-batch of its own. It returns
// the batch's event count, and false if the input channel has closed.
func (s *shard) fill(buf *[]op, n int) (int, bool) {
	for n < s.batch {
		select {
		case o, ok := <-s.in:
			if !ok {
				return n, false
			}
			*buf = append(*buf, o)
			n += len(o.run)
		default:
			return n, true
		}
	}
	return n, true
}

// flushBatch processes one micro-batch of n events, publishes the shard's
// tallies and metrics, then stamps each run's flight record and releases
// the run. The wall-clock reads (via flight.Nanos, the allowlisted
// clock) feed the obs busy-ns counter and the trace records only, never
// results. The two fault hooks run before processing: an injected delay
// models a slow shard (it cannot change results — runs are already
// ordered), and an injected panic exercises the failure path above.
// fillStart is when the batch's first run arrived; the interval to
// processing start is the batch's coalescing wait.
func (s *shard) flushBatch(fillStart int64, buf []op, n int) {
	delayed := false
	if d := s.flt.Delay(s.delaySite); d > 0 {
		delayed = true
		time.Sleep(d)
	}
	if s.flt.PanicNow(s.panicSite) {
		//predlint:ignore panicfree injected chaos panic; recovered and surfaced by loop
		panic(fmt.Sprintf("injected fault (site %s)", s.panicSite))
	}

	start := flight.Nanos()
	s.process(buf)
	busy := flight.Nanos() - start

	s.pubTP.Store(s.conf.TP)
	s.pubFP.Store(s.conf.FP)
	s.pubTN.Store(s.conf.TN)
	s.pubFN.Store(s.conf.FN)
	s.pubEvents.Store(s.events)
	s.pubEntries.Store(uint64(s.table.Entries()))
	s.pubBusyNS.Add(busy)

	s.om.eventsTotal.Add(int64(n))
	s.om.batchesTotal.Inc()
	s.om.batchSize.Observe(float64(n))
	s.om.shardBusyNS.Add(busy)

	// A post has at most one run per shard, so every op aboard belongs to
	// a distinct post and each record is stamped once per batch.
	wait := start - fillStart
	for i := range buf {
		p := buf[i].p
		p.st.NoteBatch(start, wait, busy)
		if delayed {
			p.st.MarkFault(flight.FaultDelay)
		}
		p.wg.Done()
	}
}

// process applies every run of the batch to the shard's table partition,
// runs in arrival order and each run's events in request order, and
// scores the predictions into the worker-local tallies. This is the
// serving hot path: one eval.Apply, one bitmap score, and one
// response-slot store per event — no allocation, locks, or atomics.
//
//predlint:hotpath
func (s *shard) process(buf []op) {
	for i := range buf {
		p, run := buf[i].p, buf[i].run
		for _, j := range run {
			ev := &p.evs[j]
			pred := eval.Apply(s.update, &s.keyer, s.table, ev)
			s.conf.AddBitmaps(pred, ev.FutureReaders, s.nodes)
			p.preds[j] = pred
		}
		s.events += uint64(len(run))
	}
}

// shardStats is the published (per-batch) view of one shard.
type shardStats struct {
	conf    metrics.Confusion
	events  uint64
	entries uint64
	busyNS  int64
}

func (s *shard) stats() shardStats {
	return shardStats{
		conf: metrics.Confusion{
			TP: s.pubTP.Load(),
			FP: s.pubFP.Load(),
			TN: s.pubTN.Load(),
			FN: s.pubFN.Load(),
		},
		events:  s.pubEvents.Load(),
		entries: s.pubEntries.Load(),
		busyNS:  s.pubBusyNS.Load(),
	}
}
