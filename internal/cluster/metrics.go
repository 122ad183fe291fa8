package cluster

import (
	"cohpredict/internal/obs"
)

// clusterMetrics holds the router's obs handles, resolved once at
// construction. All handles are nil-safe, so a nil registry yields a
// fully inert set (the serve-layer idiom).
type clusterMetrics struct {
	requestsTotal   *obs.Counter // cluster_http_requests_total
	errorsTotal     *obs.Counter // cluster_http_errors_total: 4xx/5xx responses
	proxiedTotal    *obs.Counter // cluster_proxied_total: requests forwarded to a backend
	proxyErrors     *obs.Counter // cluster_proxy_errors_total: transport failures router→backend
	staleRetries    *obs.Counter // cluster_stale_retries_total: 404 re-resolves after a route moved
	parked          *obs.Counter // cluster_parked_total: requests parked during a migration flip
	migrationsTotal *obs.Counter // cluster_migrations_total: completed live migrations
	migrationAborts *obs.Counter // cluster_migration_aborts_total
	failoversTotal  *obs.Counter // cluster_failovers_total: sessions flipped to the standby
	lostTotal       *obs.Counter // cluster_lost_sessions_total: died with no standby copy
	shipsTotal      *obs.Counter // cluster_snapshot_ships_total: snapshots shipped to standby
	backendsHealthy *obs.Gauge   // cluster_backends_healthy: serving nodes currently marked up
}

func newClusterMetrics(r *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		requestsTotal:   r.Counter("cluster_http_requests_total"),
		errorsTotal:     r.Counter("cluster_http_errors_total"),
		proxiedTotal:    r.Counter("cluster_proxied_total"),
		proxyErrors:     r.Counter("cluster_proxy_errors_total"),
		staleRetries:    r.Counter("cluster_stale_retries_total"),
		parked:          r.Counter("cluster_parked_total"),
		migrationsTotal: r.Counter("cluster_migrations_total"),
		migrationAborts: r.Counter("cluster_migration_aborts_total"),
		failoversTotal:  r.Counter("cluster_failovers_total"),
		lostTotal:       r.Counter("cluster_lost_sessions_total"),
		shipsTotal:      r.Counter("cluster_snapshot_ships_total"),
		backendsHealthy: r.Gauge("cluster_backends_healthy"),
	}
}
