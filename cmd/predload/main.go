// Command predload is the open-loop production traffic generator for
// predserve (internal/traffic): seeded arrival processes (Poisson,
// bursty, diurnal) drive a configurable session/event-mix workload at a
// live server, requests firing at their scheduled instants whether or
// not earlier responses have returned, and the run distills into an SLO
// report — achieved events/sec, client- and server-side p50/p99, and
// 429/503 rates — which -out writes as a predload-slo/v1 JSON document
// once Report.Validate accepts it. Server-side quantiles come from the
// server's /metrics in its JSON form.
//
//	predload -target http://localhost:8091 -rate 500 -duration 10s
//	predload -arrival bursty -mix em3d:2,ocean:1 -transport wire -out slo.json
//	predload -replay run.cohtrace -replay-shards 8
//	predload -cluster -target http://localhost:8090 -slo-p99 50
//
// -replay switches modes entirely: instead of generating load, predload
// plays a COHTRACE1 file (captured by `predserve -record`) back at the
// server — same sessions, same batching, same request IDs, in recorded
// order — and prints each replayed session's confusion summary. The
// served predictions are byte-identical to the recorded run at any
// shard count.
//
// -cluster is the capacity-planning mode: the target is a predroute
// router, and the run answers "do these backends hold this rate under
// the -slo-p99 budget?" with a predload-cluster/v1 report — the
// aggregate SLO report, a per-backend breakdown read from each node's
// /metrics JSON, the router's lifecycle tallies, and an explicit
// holds/fails verdict. A failing verdict is still written to -out, and
// predload then exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"cohpredict/internal/obs"
	"cohpredict/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "predload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target   = flag.String("target", "http://localhost:8091", "base URL of the predserve instance to drive")
		rate     = flag.Float64("rate", traffic.DefaultRate, "target request rate, requests/sec")
		duration = flag.Duration("duration", 10*time.Second, "schedule horizon")
		arrival  = flag.String("arrival", traffic.ArrivalPoisson, "arrival process: poisson, bursty, or diurnal")
		sessions = flag.Int("sessions", traffic.DefaultSessions, "concurrent sessions to drive")
		sessEvs  = flag.Int("session-events", traffic.DefaultSessionEvents, "session lifetime, in events")
		batch    = flag.Int("batch", traffic.DefaultBatch, "events per request")
		mixS     = flag.String("mix", traffic.DefaultMix, "weighted workload event mix, e.g. em3d:2,ocean:1")
		scheme   = flag.String("scheme", traffic.DefaultScheme, "predictor scheme for every session")
		shards   = flag.Int("shards", 0, "shard count to request per session (0 = server default)")
		transp   = flag.String("transport", "wire", "event-post transport: wire or json")
		seed     = flag.Int64("seed", 42, "seed for the arrival schedule and workload draws")
		out      = flag.String("out", "", "write the validated report (predload-slo/v1, or predload-cluster/v1 with -cluster) to this JSON file")
		clusterM = flag.Bool("cluster", false, "capacity-planning mode: -target is a predroute router; -out writes a predload-cluster/v1 report")
		sloP99   = flag.Float64("slo-p99", traffic.DefaultClusterSLOP99Ms, "client p99 budget in ms for the -cluster verdict")
		replayF  = flag.String("replay", "", "replay this COHTRACE1 file instead of generating load")
		replayS  = flag.Int("replay-shards", 0, "override recorded shard counts during replay (0 = as recorded)")
		paced    = flag.Bool("paced", false, "replay at recorded arrival offsets instead of full speed")
		version  = flag.Bool("version", false, "print version and build identity, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("predload", obs.Version())
		return nil
	}

	var binary bool
	switch *transp {
	case "wire":
		binary = true
	case "json":
	default:
		return fmt.Errorf("unknown transport %q (want wire or json)", *transp)
	}

	if *replayF != "" {
		return runReplay(*replayF, *target, binary, *replayS, *seed, *paced)
	}

	mix, err := traffic.ParseMix(*mixS)
	if err != nil {
		return err
	}
	plan, err := traffic.BuildPlan(traffic.GenConfig{
		Seed:          *seed,
		Arrival:       *arrival,
		Rate:          *rate,
		Duration:      *duration,
		Sessions:      *sessions,
		SessionEvents: *sessEvs,
		Batch:         *batch,
		Mix:           mix,
		Scheme:        *scheme,
		Shards:        *shards,
	})
	if err != nil {
		return err
	}
	fmt.Printf("predload: %s arrivals at %.0f req/s over %v: %d sessions, %d requests, %d events\n",
		plan.Arrival, plan.Rate, *duration, len(plan.Sessions), len(plan.Requests), plan.Events())

	if *clusterM {
		return runCluster(plan, *target, binary, *sloP99, *out)
	}

	rep, err := traffic.Run(plan, traffic.RunOptions{BaseURL: *target, Binary: binary})
	if err != nil {
		return err
	}
	fmt.Printf("predload: %d/%d requests ok, %.0f events/sec, client p50 %.2fms p99 %.2fms, 429s %.1f%% 503s %.1f%%\n",
		rep.OK, rep.Requests, rep.EventsPerSec, rep.ClientP50Ms, rep.ClientP99Ms,
		100*rep.Rate429, 100*rep.Rate503)
	if rep.ServerP50Ms > 0 || rep.ServerP99Ms > 0 {
		fmt.Printf("predload: server p50 %.2fms p99 %.2fms\n", rep.ServerP50Ms, rep.ServerP99Ms)
	}
	if rep.OK == 0 {
		return fmt.Errorf("no request succeeded (server down, or every post rejected)")
	}
	return writeReport(*out, rep)
}

// writeReport writes a validated report as indented JSON to path (a
// no-op when path is empty).
func writeReport(path string, rep interface{ Validate() error }) error {
	if path == "" {
		return nil
	}
	if err := rep.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("predload: wrote %s\n", path)
	return nil
}

// runCluster drives a predroute router with the plan and renders the
// capacity verdict, optionally writing the predload-cluster/v1 report.
func runCluster(plan *traffic.Plan, base string, binary bool, sloP99 float64, out string) error {
	rep, err := traffic.RunCluster(plan, traffic.ClusterRunOptions{
		RouterURL: base,
		Binary:    binary,
		SLOP99Ms:  sloP99,
	})
	if err != nil {
		return err
	}
	agg := &rep.Aggregate
	fmt.Printf("predload: %d/%d requests ok, %.0f events/sec, client p50 %.2fms p99 %.2fms, 429s %.1f%% 503s %.1f%%\n",
		agg.OK, agg.Requests, agg.EventsPerSec, agg.ClientP50Ms, agg.ClientP99Ms,
		100*agg.Rate429, 100*agg.Rate503)
	for _, b := range rep.PerBackend {
		role := "backend"
		if b.Standby {
			role = "standby"
		}
		health := "up"
		if !b.Healthy {
			health = "DOWN"
		}
		fmt.Printf("  %s %s [%s]: %d sessions, %d events, %d requests, server p50 %.2fms p99 %.2fms\n",
			role, b.URL, health, b.Sessions, b.Events, b.Requests, b.ServerP50Ms, b.ServerP99Ms)
	}
	if rep.Migrations > 0 || rep.Failovers > 0 || rep.Lost > 0 {
		fmt.Printf("predload: cluster churn: %d migrations, %d failovers, %d lost\n",
			rep.Migrations, rep.Failovers, rep.Lost)
	}
	if rep.Holds {
		fmt.Printf("predload: capacity HOLDS: %d backends at %.0f req/s under the %.0fms p99 budget\n",
			rep.Backends, rep.TargetRPS, rep.SLOP99Ms)
	} else {
		fmt.Printf("predload: capacity FAILS: %s\n", rep.Reason)
	}

	if err := writeReport(out, rep); err != nil {
		return err
	}
	if !rep.Holds {
		return fmt.Errorf("capacity verdict: fails (%s)", rep.Reason)
	}
	return nil
}

// runReplay plays a recorded trace back at the server and prints each
// replayed session's confusion summary.
func runReplay(path, base string, binary bool, shards int, seed int64, paced bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := traffic.DecodeTraceFile(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res, err := traffic.Replay(recs, traffic.ReplayOptions{
		BaseURL: base,
		Binary:  binary,
		Shards:  shards,
		Seed:    seed,
		Paced:   paced,
	})
	if err != nil {
		return err
	}
	fmt.Printf("predload: replayed %s: %d sessions, %d requests, %d events\n",
		path, len(res.Sessions), res.Requests, res.Events)
	for i := range res.Sessions {
		s := &res.Sessions[i]
		st := s.Stats
		fmt.Printf("  session %d (%s, %s): events=%d tp=%d fp=%d tn=%d fn=%d sensitivity=%.4f pvp=%.4f\n",
			i, s.ID, s.Scheme, st.Events, st.TP, st.FP, st.TN, st.FN, st.Sensitivity, st.PVP)
	}
	return nil
}
