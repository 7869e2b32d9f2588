// Command hsqpd is the serving daemon: it boots a simulated cluster, loads
// TPC-H, and serves queries over TCP using the hsqp wire protocol — with a
// single-flight result cache and per-tenant weighted-fair admission. Every
// request that executes builds and compiles its statement.
//
// Usage:
//
//	hsqpd -listen :7483 -servers 3 -sf 0.01
//	hsqpd -listen 127.0.0.1:0 -tenants heavy:4,light:1 -slots 4
//
// SIGINT/SIGTERM (or a client Shutdown request) drains gracefully:
// in-flight queries complete, queued ones fail fast, then the process
// exits after printing per-tenant serving stats.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/obs"
	"hsqp/internal/report"
	"hsqp/internal/serve"
	"hsqp/internal/tpch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hsqpd:", err)
		os.Exit(1)
	}
}

// parseTenants parses "name:weight,name:weight" (weight optional, default 1).
func parseTenants(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, found := strings.Cut(part, ":")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(ws); err != nil || w < 1 {
				return nil, fmt.Errorf("bad tenant weight %q (want name:positive-int)", part)
			}
		}
		if name == "" {
			return nil, fmt.Errorf("bad tenant spec %q", part)
		}
		out[name] = w
	}
	return out, nil
}

// metricsMux serves the observability endpoints: Prometheus-text metrics
// and the standard pprof handlers. Registered on a private mux, not
// http.DefaultServeMux, so importing net/http/pprof elsewhere cannot
// silently widen this surface.
func metricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(obs.Default()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(args []string) error {
	fs := flag.NewFlagSet("hsqpd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7483", "TCP listen address")
	servers := fs.Int("servers", 3, "cluster size")
	workers := fs.Int("workers", 4, "workers per server")
	sf := fs.Float64("sf", 0.01, "TPC-H scale factor")
	seed := fs.Uint64("seed", 42, "generator seed (advertised to clients for -verify)")
	transport := fs.String("transport", "rdma", "rdma|tcp|gbe")
	sched := fs.Bool("sched", true, "round-robin network scheduling")
	partitioned := fs.Bool("partitioned", false, "partitioned placement")
	timescale := fs.Float64("timescale", 0.005, "network time scale")
	tenants := fs.String("tenants", "", "tenant weights, e.g. heavy:4,light:1 (others get weight 1)")
	slots := fs.Int("slots", cluster.DefaultMaxConcurrent, "concurrent execution slots")
	maxQueued := fs.Int("maxqueued", serve.DefaultMaxQueued, "admission queue bound per tenant")
	resultMB := fs.Int64("resultcache", serve.DefaultResultCacheBytes>>20, "result cache budget in MiB (0 disables)")
	metricsAddr := fs.String("metrics-addr", "", "HTTP listen address for /metrics and /debug/pprof/ (empty disables)")
	slowQuery := fs.Duration("slowquery", 0, "log requests slower than this threshold (0 disables)")
	slowLogPath := fs.String("slowlog", "", "slow-query log file (default stderr)")
	noObs := fs.Bool("noobs", false, "disable metrics and tracing instrumentation (overhead ablation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *noObs {
		obs.SetEnabled(false)
	}
	tk, err := cluster.ParseTransport(*transport)
	if err != nil {
		return err
	}
	weights, err := parseTenants(*tenants)
	if err != nil {
		return err
	}

	c, err := cluster.New(cluster.Config{
		Servers:          *servers,
		WorkersPerServer: *workers,
		Transport:        tk,
		Scheduling:       *sched,
		TimeScale:        *timescale,
		MorselSize:       4096,
		MessageSize:      64 * 1024,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("hsqpd: loading TPC-H SF %g (seed %d, %s placement) on %d servers…\n",
		*sf, *seed, map[bool]string{true: "partitioned", false: "chunked"}[*partitioned], *servers)
	c.LoadTPCH(tpch.Generate(*sf, *seed), *partitioned)

	var slowW io.Writer
	if *slowLogPath != "" {
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("slowlog: %w", err)
		}
		defer f.Close()
		slowW = f
	}

	srv := serve.New(serve.Config{
		Cluster:            c,
		SF:                 *sf,
		Seed:               *seed,
		Tenants:            weights,
		Slots:              *slots,
		MaxQueuedPerTenant: *maxQueued,
		ResultCacheBytes:   *resultMB << 20,
		DisableResultCache: *resultMB == 0,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       slowW,
	})

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("hsqpd: serving on %s (%d slots, result cache %d MiB)\n",
		lis.Addr(), *slots, *resultMB)

	if *metricsAddr != "" {
		mlis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer mlis.Close()
		msrv := &http.Server{Handler: metricsMux(), ReadHeaderTimeout: 5 * time.Second}
		go msrv.Serve(mlis)
		fmt.Printf("hsqpd: metrics on http://%s/metrics (pprof at /debug/pprof/)\n", mlis.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Printf("hsqpd: %v, draining…\n", sig)
			srv.Shutdown()
		case <-srv.Done():
			// Client-initiated shutdown; nothing to do.
		}
	}()

	srv.Serve(lis) // returns when Shutdown closes the listener
	<-srv.Done()

	stats := srv.TenantStats()
	if len(stats) > 0 {
		tab := &report.Table{
			Title:  "per-tenant serving stats",
			Header: []string{"tenant", "weight", "served", "queue p50", "queue p99", "total p50", "total p99"},
		}
		for _, ts := range stats {
			tab.Add(ts.Tenant, fmt.Sprintf("%d", ts.Weight), fmt.Sprintf("%d", ts.Served),
				report.Dur(ts.QueueP50), report.Dur(ts.QueueP99), report.Dur(ts.TotalP50), report.Dur(ts.TotalP99))
		}
		tab.Fprint(os.Stdout)
	}
	rc := srv.ResultCacheStats()
	fmt.Printf("hsqpd: result cache %d hit / %d shared / %d miss; bye\n", rc.Hits, rc.Shared, rc.Misses)
	return nil
}
