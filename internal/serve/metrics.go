package serve

import (
	"cohpredict/internal/obs"
)

// BatchSizeBuckets are the serve_batch_size histogram bounds: powers of
// two spanning a lone straggler to the largest accepted batch.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// serveMetrics holds the service's obs handles, resolved once per server
// (or once per standalone session) and shared by every shard worker. All
// handles are nil-safe, so a nil registry yields a fully inert set.
type serveMetrics struct {
	sessionsActive *obs.Gauge     // serve_sessions_active
	sessionsTotal  *obs.Counter   // serve_sessions_total
	eventsTotal    *obs.Counter   // serve_events_total
	batchesTotal   *obs.Counter   // serve_batches_total: shard micro-batches flushed
	batchSize      *obs.Histogram // serve_batch_size: events per flushed micro-batch
	queueDepth     *obs.Gauge     // serve_queue_depth: admitted, not yet processed
	backpressure   *obs.Counter   // serve_backpressure_total: batches refused with 429
	requestsTotal  *obs.Counter   // serve_http_requests_total
	errorsTotal    *obs.Counter   // serve_http_errors_total: 4xx/5xx responses
	wireRequests   *obs.Counter   // serve_wire_requests_total: COHWIRE1 event posts accepted
	shardBusyNS    *obs.Counter   // serve_shard_busy_ns_total
	shardPanics    *obs.Counter   // serve_shard_panics_total: worker panics recovered
	idemHits       *obs.Counter   // serve_idempotent_replays_total: batches served from cache
	snapshots      *obs.Counter   // serve_snapshots_total
	restores       *obs.Counter   // serve_restores_total

	// Restored sessions not yet used: how many, the snapshot bytes they
	// hold, and how many have been built on first use since start.
	sessionsDormant *obs.Gauge   // serve_sessions_dormant
	dormantBytes    *obs.Gauge   // serve_dormant_bytes
	wakes           *obs.Counter // serve_session_wakes_total
}

func newServeMetrics(r *obs.Registry) *serveMetrics {
	return &serveMetrics{
		sessionsActive: r.Gauge("serve_sessions_active"),
		sessionsTotal:  r.Counter("serve_sessions_total"),
		eventsTotal:    r.Counter("serve_events_total"),
		batchesTotal:   r.Counter("serve_batches_total"),
		batchSize:      r.Histogram("serve_batch_size", BatchSizeBuckets),
		queueDepth:     r.Gauge("serve_queue_depth"),
		backpressure:   r.Counter("serve_backpressure_total"),
		requestsTotal:  r.Counter("serve_http_requests_total"),
		errorsTotal:    r.Counter("serve_http_errors_total"),
		wireRequests:   r.Counter("serve_wire_requests_total"),
		shardBusyNS:    r.Counter("serve_shard_busy_ns_total"),
		shardPanics:    r.Counter("serve_shard_panics_total"),
		idemHits:       r.Counter("serve_idempotent_replays_total"),
		snapshots:      r.Counter("serve_snapshots_total"),
		restores:       r.Counter("serve_restores_total"),

		sessionsDormant: r.Gauge("serve_sessions_dormant"),
		dormantBytes:    r.Gauge("serve_dormant_bytes"),
		wakes:           r.Counter("serve_session_wakes_total"),
	}
}

// dormant moves the dormant gauges by n sessions holding size bytes.
func (m *serveMetrics) dormant(n, size int) {
	m.sessionsDormant.Add(float64(n))
	m.dormantBytes.Add(float64(size))
}
