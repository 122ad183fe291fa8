// Command predroute fronts a predserve cluster (internal/cluster): it
// consistent-hashes sessions across N backends, proxies the predserve
// API under one cluster-wide session namespace (each backend holds a
// session under its cluster id), health-checks every node, migrates
// live sessions between backends without dropping or double-training a
// batch, and ships periodic snapshots to a warm standby so a killed
// backend loses at most one ship interval.
//
//	predroute -backends http://10.0.0.1:8091,http://10.0.0.2:8091
//	predroute -backends ... -standby http://10.0.0.9:8091 -ship-interval 5s
//	predroute -version   # build identity
//
// The control surface: GET /v1/cluster reports topology, the routing
// table, and lifecycle tallies; POST /v1/cluster/migrate moves one
// session. Everything else is the predserve API, cluster-wide.
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

	"cohpredict/internal/cluster"
	"cohpredict/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "predroute:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		backends = flag.String("backends", "", "comma-separated predserve base URLs (required)")
		standby  = flag.String("standby", "", "warm-standby predserve base URL (enables snapshot shipping and failover)")
		healthI  = flag.Duration("health-interval", 2*time.Second, "background health-probe interval (0 disables)")
		shipI    = flag.Duration("ship-interval", 5*time.Second, "standby snapshot-ship interval (0 disables)")
		logS     = flag.String("log", "info", "log level: quiet, info, debug")
		version  = flag.Bool("version", false, "print version and build identity, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("predroute", obs.Version())
		return nil
	}
	level, err := obs.ParseLevel(*logS)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(level, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})

	if *backends == "" {
		return fmt.Errorf("need -backends")
	}

	reg := obs.Default()
	rt, err := cluster.New(cluster.Options{
		Backends:       splitList(*backends),
		Standby:        *standby,
		Registry:       reg,
		Log:            logger,
		HealthInterval: *healthI,
		ShipInterval:   *shipI,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Infof("predroute: listening on %s, %d backends, standby %q",
		ln.Addr(), len(splitList(*backends)), *standby)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Infof("predroute: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
