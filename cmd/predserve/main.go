// Command predserve hosts live prediction engines behind a JSON HTTP API
// (internal/serve): create a session for a scheme, stream directory write
// events at it, and read back predicted sharing bitmaps and the
// confusion/sensitivity/PVP summary. See the README's "Serving" section
// for a curl walkthrough.
//
//	predserve                      # serve on :8091
//	predserve -addr :9000 -log info
//	predserve -version             # build identity
//
// On SIGINT/SIGTERM the server drains gracefully: listeners close,
// in-flight requests and batches finish, session statistics are published,
// and (with -obs) a final metrics snapshot is written.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cohpredict/internal/fault"
	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
	"cohpredict/internal/traffic"
)

// restoreSpec is one -restore flag value: boot the server with this
// session already live, rebuilt from a snapshot file.
type restoreSpec struct {
	id   string
	path string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "predserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", ":8091", "listen address")
		logS    = flag.String("log", "info", "log level: quiet, info, debug")
		shards  = flag.Int("shards", 0, "default shard count for sessions that don't request one (0 = min(cores, 8)); results are identical at any value")
		obsOut  = flag.String("obs", "", "write the final observability snapshot to this JSON file on shutdown")
		record  = flag.String("record", "", "capture the accepted event stream to this COHTRACE1 file on shutdown (predload -replay plays it back)")
		version = flag.Bool("version", false, "print version and build identity, then exit")

		traceSample = flag.Int("trace-sample", flight.DefaultSample, "flight recorder: record every Nth healthy events request (1 = all; errors, faults, and slow requests always record)")
		slowThresh  = flag.Duration("slow-threshold", flight.DefaultSlowThreshold, "flight recorder: promote requests at least this slow to /v1/debug/slow")

		chaosSeed     = flag.Int64("chaos-seed", 42, "seed for the fault injector; a chaos run replays from this value alone")
		chaosDrop     = flag.Float64("chaos-drop", 0, "probability of dropping a batch at queue admission (503)")
		chaosDelay    = flag.Float64("chaos-delay", 0, "probability of stalling a shard micro-batch")
		chaosMaxDelay = flag.Duration("chaos-max-delay", 200*time.Microsecond, "upper bound of an injected shard stall")
		chaosReset    = flag.Float64("chaos-reset", 0, "probability of resetting the connection after processing (lost response)")
		chaosError    = flag.Float64("chaos-error", 0, "probability of failing an events request with an injected 500")
	)
	var restores []restoreSpec
	flag.Func("restore", "restore a session at boot from `id=snapshot-file` (repeatable)", func(v string) error {
		id, path, ok := strings.Cut(v, "=")
		if !ok || id == "" || path == "" {
			return fmt.Errorf("want id=snapshot-file, got %q", v)
		}
		restores = append(restores, restoreSpec{id: id, path: path})
		return nil
	})
	flag.Parse()

	if *version {
		fmt.Println("predserve", obs.Version())
		return nil
	}

	level, err := obs.ParseLevel(*logS)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(level, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})

	reg := obs.Default()
	var inj *fault.Injector
	manifest := obs.NewManifest(0, "serve", *shards)
	if *chaosDrop > 0 || *chaosDelay > 0 || *chaosReset > 0 || *chaosError > 0 {
		inj = fault.New(fault.Config{
			Seed:     *chaosSeed,
			Drop:     *chaosDrop,
			Delay:    *chaosDelay,
			MaxDelay: *chaosMaxDelay,
			Reset:    *chaosReset,
			Error:    *chaosError,
		}, reg)
		manifest.ChaosSeed = *chaosSeed
		logger.Infof("predserve: chaos injection enabled (seed %d): drop=%.2f delay=%.2f reset=%.2f error=%.2f",
			*chaosSeed, *chaosDrop, *chaosDelay, *chaosReset, *chaosError)
	}
	reg.SetManifest(manifest)

	opts := serve.Options{
		Registry:      reg,
		Log:           logger,
		DefaultShards: *shards,
		Fault:         inj,
		Flight: flight.New(flight.Options{
			Registry:      reg,
			Sample:        *traceSample,
			SlowThreshold: *slowThresh,
		}),
	}
	var rec *traffic.Recorder
	if *record != "" {
		rec = traffic.NewRecorder()
		opts.Record = rec
		logger.Infof("predserve: recording accepted events to %s", *record)
	}
	srv := serve.NewServer(opts)

	for _, rs := range restores {
		data, err := os.ReadFile(rs.path)
		if err != nil {
			return fmt.Errorf("restore %s: %w", rs.id, err)
		}
		if _, err := srv.RestoreSnapshot(rs.id, data, nil); err != nil {
			return fmt.Errorf("restore %s: %w", rs.id, err)
		}
		logger.Infof("predserve: restored session %s from %s", rs.id, rs.path)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Infof("predserve: listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Infof("predserve: signal received, draining")

	// Stop the listener and wait for in-flight requests, then drain the
	// sessions (in-flight batches finish, statistics are published).
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Shutdown()
	if rec != nil {
		if err := os.WriteFile(*record, rec.Bytes(), 0o644); err != nil {
			return err
		}
		logger.Infof("predserve: wrote %s (%d records, %d batches skipped)",
			*record, rec.Records(), rec.Skipped())
	}

	if *obsOut != "" {
		data, err := reg.SnapshotJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*obsOut, data, 0o644); err != nil {
			return err
		}
		logger.Infof("predserve: wrote %s", *obsOut)
	}
	return nil
}
