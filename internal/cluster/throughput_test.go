package cluster_test

import (
	"testing"

	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// hammerEvents synthesizes a dense, cache-unfriendly event stream (the
// serve load suite's generator, relocated): rotating PIDs and PCs so
// the predictor tables churn instead of hitting one entry.
func hammerEvents(n, nodes int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		pid := i % nodes
		evs[i] = trace.Event{
			PID:           uint8(pid),
			PC:            uint64(20 + i%7),
			Dir:           uint8((i / nodes) % nodes),
			Addr:          uint64(i%257) * 64,
			InvReaders:    0,
			HasPrev:       true,
			PrevPID:       uint8((pid + 1) % nodes),
			PrevPC:        uint64(20 + (i+1)%7),
			FutureReaders: 1 << uint((pid+2)%nodes),
		}
	}
	return evs
}

// TestThroughputFloorClusterWire is the acceptance criterion that the
// router does not cost the wire path its floor: COHWIRE1 batches
// proxied through predroute to a single backend must still sustain
// 500k events/sec end to end — the same floor the backend holds when
// hit directly — over the time the VM's CPUs were not stolen
// (unstolenTimer). Skipped in -short runs and under the race detector,
// like every throughput floor in this repo.
func TestThroughputFloorClusterWire(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping load test in short mode")
	}
	if raceEnabled {
		t.Skip("skipping load test under the race detector")
	}

	tc := startCluster(t, clusterConfig{backends: 1})
	const batch = 4096
	evs := hammerEvents(batch*4, 16)
	bodies := make([][]byte, 0, 4)
	for lo := 0; lo+batch <= len(evs); lo += batch {
		bodies = append(bodies, serve.AppendWireBatch(nil, evs[lo:lo+batch]))
	}

	code, _, body := tc.doRaw(t, "POST", "/v1/sessions",
		[]byte(`{"scheme":"union(pid+dir+add10)2[forwarded]","shards":4}`),
		map[string]string{"Content-Type": "application/json"})
	if code != 201 {
		t.Fatalf("create: %d: %s", code, body)
	}
	id := sessionID(t, body)
	path := "/v1/sessions/" + id + "/events"
	hdr := map[string]string{"Content-Type": serve.ContentTypeWire}

	// Warm the router's proxy connections and the backend's pools.
	tc.doRaw(t, "POST", path, bodies[0], hdr)

	const rounds = 16
	timer := startUnstolen()
	var total uint64
	for r := 0; r < rounds; r++ {
		code, _, body := tc.doRaw(t, "POST", path, bodies[r%len(bodies)], hdr)
		if code != 200 {
			t.Fatalf("round %d: status %d: %s", r, code, body)
		}
		total += uint64(batch)
	}
	elapsed := timer.elapsed()
	rate := float64(total) / elapsed.Seconds()
	t.Logf("sustained %.0f events/sec through the router (%d events in %v unstolen)", rate, total, elapsed)
	if rate < 500_000 {
		t.Fatalf("routed throughput %.0f events/sec below the 500000 floor", rate)
	}
}

// BenchmarkServeWireCluster/http is the routed counterpart to
// BenchmarkServeWire/http: the identical COHWIRE1 batch, but proxied
// through the cluster router to its backend, so the delta between the
// two benches IS the router's overhead. The backend's flight-recorder
// histograms still price the p50/p99 (the backend does the serving;
// the router adds a hop).
func BenchmarkServeWireCluster(b *testing.B) {
	b.Run("http", func(b *testing.B) {
		reg := obs.New()
		backend := serve.NewServer(serve.Options{Registry: reg})
		tcBackend := startBackendSrv(b, backend)
		defer tcBackend.kill()
		tc := startClusterOver(b, []*testBackend{tcBackend})

		const batch = 1024
		bodyBytes := serve.AppendWireBatch(nil, hammerEvents(batch, 16))

		code, _, resp := tc.doRaw(b, "POST", "/v1/sessions",
			[]byte(`{"scheme":"union(pid+dir+add10)2[forwarded]","shards":4}`),
			map[string]string{"Content-Type": "application/json"})
		if code != 201 {
			b.Fatalf("create: %d: %s", code, resp)
		}
		path := "/v1/sessions/" + sessionID(b, resp) + "/events"
		hdr := map[string]string{"Content-Type": serve.ContentTypeWire}
		tc.doRaw(b, "POST", path, bodyBytes, hdr) // warm pools and tables

		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if code, _, _ := tc.doRaw(b, "POST", path, bodyBytes, hdr); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/sec")
		h := reg.Snapshot().Histograms["serve_request_seconds_"+flight.RouteEvents+"_"+flight.TransportWire]
		b.ReportMetric(h.Quantile(0.50)*1000, "p50-ms")
		b.ReportMetric(h.Quantile(0.99)*1000, "p99-ms")
	})
}
