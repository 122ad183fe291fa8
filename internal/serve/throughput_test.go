package serve_test

import (
	"fmt"
	"testing"

	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
	"cohpredict/internal/traffic"
)

// throughputBodies pre-encodes request bodies for the load tests so the
// floors measure the service, not the test's marshaller. encode renders
// one batch of API events into a request body (JSON or COHWIRE1).
func throughputBodies(t testing.TB, batch, n int, encode func([]serve.EventRequest) []byte) [][]byte {
	t.Helper()
	evs := hammerEvents(batch*n, 16)
	bodies := make([][]byte, 0, n)
	for lo := 0; lo+batch <= len(evs); lo += batch {
		bodies = append(bodies, encode(evs[lo:lo+batch]))
	}
	return bodies
}

func jsonEncode(t testing.TB) func([]serve.EventRequest) []byte {
	return func(evs []serve.EventRequest) []byte {
		b, err := jsonMarshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

func wireEncode(evs []serve.EventRequest) []byte {
	return serve.AppendWireBatch(nil, evs)
}

// runThroughputFloor replays pre-encoded batches through the events
// endpoint and fails if the sustained rate, over the time the VM's CPUs
// were not stolen (unstolenTimer), drops below floor events/sec.
func runThroughputFloor(t *testing.T, contentType string, bodies [][]byte, batch int, floor float64) {
	runThroughputFloorOpts(t, serve.Options{}, contentType, bodies, batch, floor)
}

// runThroughputFloorOpts is runThroughputFloor against a server built
// from caller-chosen options (the recorded-throughput floor passes a
// COHTRACE1 recorder here).
func runThroughputFloorOpts(t *testing.T, opts serve.Options, contentType string, bodies [][]byte, batch int, floor float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping load test in short mode")
	}
	if raceEnabled {
		t.Skip("skipping load test under the race detector")
	}

	srv := serve.NewServer(opts)
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{
		Scheme: "union(pid+dir+add10)2[forwarded]",
		Shards: 4,
	})
	path := "/v1/sessions/" + sess.ID + "/events"
	hdr := map[string]string{"Content-Type": contentType}

	// Warm up the connection pool, the predictor table, and (on the wire
	// path) the server's buffer pool.
	c.doRaw("POST", path, bodies[0], hdr)

	const rounds = 16
	timer := startUnstolen()
	var total uint64
	for r := 0; r < rounds; r++ {
		code, _, body := c.doRaw("POST", path, bodies[r%len(bodies)], hdr)
		if code != 200 {
			t.Fatalf("round %d: status %d: %s", r, code, body)
		}
		total += uint64(batch)
	}
	elapsed := timer.elapsed()
	rate := float64(total) / elapsed.Seconds()
	t.Logf("sustained %.0f events/sec (%d events in %v unstolen)", rate, total, elapsed)
	if rate < floor {
		t.Fatalf("throughput %.0f events/sec below the %.0f floor", rate, floor)
	}
}

// TestThroughputFloor is the JSON acceptance load test: the batched
// endpoint must sustain at least 100k events/sec end to end (JSON in,
// prediction, JSON out) on the development machine. Skipped in
// -short runs and under the race detector, where the floor would measure
// the instrumentation instead of the service.
func TestThroughputFloor(t *testing.T) {
	const batch = 4096
	runThroughputFloor(t, "application/json",
		throughputBodies(t, batch, 4, jsonEncode(t)), batch, 100_000)
}

// TestThroughputFloorWire is the binary acceptance load test, and the
// PR's ratchet: COHWIRE1 in, pooled allocation-free decode and encode,
// COHWIRE1 out must sustain at least 500k events/sec — five times the
// JSON floor — with 1M/sec the aspirational target.
func TestThroughputFloorWire(t *testing.T) {
	const batch = 4096
	runThroughputFloor(t, serve.ContentTypeWire,
		throughputBodies(t, batch, 4, wireEncode), batch, 500_000)
}

// TestThroughputFloorWireRecorded re-runs the binary floor with a
// COHTRACE1 recorder attached: capturing the accepted event stream must
// not cost the wire path its 500k events/sec floor. The captured trace
// is then decoded to prove the high-rate recording stayed well-formed.
func TestThroughputFloorWireRecorded(t *testing.T) {
	const batch = 4096
	rec := traffic.NewRecorder()
	runThroughputFloorOpts(t, serve.Options{Record: rec}, serve.ContentTypeWire,
		throughputBodies(t, batch, 4, wireEncode), batch, 500_000)
	if rec.Records() < 2 { // the session plus at least the warm-up batch
		t.Fatalf("recorder captured %d records during the floor run", rec.Records())
	}
	if _, err := traffic.DecodeTraceFile(rec.Bytes()); err != nil {
		t.Fatalf("trace recorded at full wire rate does not decode: %v", err)
	}
}

// benchBatch is the batch every transport benchmark encodes, decodes and
// posts.
const benchBatch = 1024

// benchServeHTTP measures the end-to-end events/sec of posting one
// encoded batch through the full HTTP path, plus the p50/p99 request
// latency read back from the flight recorder's RED histograms — the
// bench runs with the recorder at its default sampling, so the
// quantiles include the tracing overhead.
func benchServeHTTP(b *testing.B, contentType string, shards int, body []byte) {
	reg := obs.New()
	srv := serve.NewServer(serve.Options{Registry: reg})
	defer srv.Shutdown()
	c, closeTS := newClient(b, srv)
	defer closeTS()

	sess := c.createSession(serve.CreateSessionRequest{
		Scheme: "union(pid+dir+add10)2[forwarded]", Shards: shards,
	})
	path := "/v1/sessions/" + sess.ID + "/events"
	hdr := map[string]string{"Content-Type": contentType}
	c.doRaw("POST", path, body, hdr) // warm pools and tables

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if code, _, _ := c.doRaw("POST", path, body, hdr); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "events/sec")
	transport := flight.TransportJSON
	if contentType == serve.ContentTypeWire {
		transport = flight.TransportWire
	}
	h := reg.Snapshot().Histograms["serve_request_seconds_"+flight.RouteEvents+"_"+transport]
	b.ReportMetric(h.Quantile(0.50)*1000, "p50-ms")
	b.ReportMetric(h.Quantile(0.99)*1000, "p99-ms")
}

// BenchmarkServeJSON and BenchmarkServeWire price one transport each
// over the same batch: encode and decode time the codec alone, and http
// posts the encoded batch through a session end to end. The wire
// decoder appends into a reused buffer, so its steady state allocates
// nothing (TestWireKernelsAllocFree pins that).
func BenchmarkServeJSON(b *testing.B) {
	evs := hammerEvents(benchBatch, 16)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jsonMarshal(evs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/sec")
	})
	body := jsonEncode(b)(evs)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := serve.DecodeEvents(body, 16); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("http", func(b *testing.B) {
		benchServeHTTP(b, "application/json", 4, body)
	})
}

func BenchmarkServeWire(b *testing.B) {
	evs := hammerEvents(benchBatch, 16)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		dst := serve.AppendWireBatch(nil, evs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = serve.AppendWireBatch(dst[:0], evs)
		}
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/sec")
	})
	frame := wireEncode(evs)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]trace.Event, 0, len(evs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = serve.DecodeWireBatchInto(frame, 16, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("http", func(b *testing.B) {
		benchServeHTTP(b, serve.ContentTypeWire, 4, frame)
	})
}

// BenchmarkPostBatched reports the end-to-end cost per event through the
// HTTP path at a few shard widths (go test -bench=. -benchmem).
func BenchmarkPostBatched(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv := serve.NewServer(serve.Options{})
			defer srv.Shutdown()
			c, closeTS := newClient(b, srv)
			defer closeTS()

			sess := c.createSession(serve.CreateSessionRequest{
				Scheme: "union(pid+dir+add10)2[forwarded]", Shards: shards,
			})
			const batch = 1024
			body, err := jsonMarshal(hammerEvents(batch, 16))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if code := c.do("POST", "/v1/sessions/"+sess.ID+"/events", body, nil); code != 200 {
					b.Fatalf("status %d", code)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
