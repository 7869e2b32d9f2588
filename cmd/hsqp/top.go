package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"hsqp/internal/obs"
	"hsqp/internal/report"
)

// cmdTop polls a daemon's /metrics endpoint and renders a one-screen live
// summary: request throughput, per-tenant latency/queue state, cache hit
// rates and engine utilisation. Rates are computed from counter deltas
// between consecutive scrapes; gauges and percentiles are shown as-is.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7484", "daemon metrics address (host:port of -metrics-addr)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	n := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := fmt.Sprintf("http://%s/metrics", *addr)

	var prev *obs.SampleSet
	var prevAt time.Time
	for i := 0; *n <= 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := scrape(url)
		now := time.Now()
		if err != nil {
			return err
		}
		if i > 0 && *n != 1 {
			fmt.Print("\033[H\033[2J") // clear between refreshes
		}
		render(os.Stdout, cur, prev, now.Sub(prevAt))
		prev, prevAt = cur, now
	}
	return nil
}

func scrape(url string) (*obs.SampleSet, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return obs.NewSampleSet(samples), nil
}

// rate is the per-second delta of a counter between two scrapes, or -1
// when no previous scrape exists yet.
func rate(cur, prev *obs.SampleSet, name string, dt time.Duration) float64 {
	if prev == nil || dt <= 0 {
		return -1
	}
	return (cur.Sum(name) - prev.Sum(name)) / dt.Seconds()
}

func render(w io.Writer, cur, prev *obs.SampleSet, dt time.Duration) {
	qps := rate(cur, prev, "hsqp_serve_requests_total", dt)
	wireRate := rate(cur, prev, "hsqp_exchange_wire_bytes_total", dt)

	conns, _ := cur.Value("hsqp_serve_connections_active", nil)
	runs, _ := cur.Value("hsqp_engine_active_runs", nil)
	queries := cur.Sum("hsqp_cluster_queries_total")
	slow := cur.Sum("hsqp_serve_slow_queries_total")

	fmt.Fprintf(w, "hsqp top — %s\n", time.Now().Format("15:04:05"))
	if qps >= 0 {
		fmt.Fprintf(w, "requests %7.1f/s   wire %9s/s   ", qps, report.MB(uint64(max64(wireRate, 0))))
	} else {
		fmt.Fprintf(w, "requests   (first sample)   ")
	}
	fmt.Fprintf(w, "conns %.0f   active runs %.0f   queries %.0f   slow %.0f\n",
		conns, runs, queries, slow)

	// Engine utilisation: busy worker-seconds per wall-second per worker.
	workers, _ := cur.Value("hsqp_engine_workers", nil)
	if busyRate := rate(cur, prev, "hsqp_engine_busy_nanoseconds_total", dt); busyRate >= 0 && workers > 0 {
		fmt.Fprintf(w, "workers %.0f   busy %5.1f%%   morsels %7.0f/s   steals %6.0f/s\n",
			workers, 100*busyRate/1e9/workers,
			rate(cur, prev, "hsqp_engine_morsels_total", dt),
			rate(cur, prev, "hsqp_engine_steals_total", dt))
	} else {
		fmt.Fprintf(w, "workers %.0f\n", workers)
	}

	resHits := cur.Sum("hsqp_serve_resultcache_hits_total")
	resShared := cur.Sum("hsqp_serve_resultcache_shared_total")
	resMisses := cur.Sum("hsqp_serve_resultcache_misses_total")
	fmt.Fprintf(w, "result cache %s (%.0f shared)\n", hitRate(resHits+resShared, resMisses), resShared)

	tenants := cur.LabelValues("hsqp_serve_qos_served_total", "tenant")
	sort.Strings(tenants)
	if len(tenants) == 0 {
		return
	}
	tab := &report.Table{Header: []string{"tenant", "served", "queued", "queue p99", "total p50", "total p99"}}
	for _, tn := range tenants {
		l := map[string]string{"tenant": tn}
		served, _ := cur.Value("hsqp_serve_qos_served_total", l)
		depth, _ := cur.Value("hsqp_serve_qos_queue_depth", l)
		qp99, _ := cur.Value("hsqp_serve_qos_queue_p99_seconds", l)
		tp50, _ := cur.Value("hsqp_serve_qos_total_p50_seconds", l)
		tp99, _ := cur.Value("hsqp_serve_qos_total_p99_seconds", l)
		tab.Add(tn, fmt.Sprintf("%.0f", served), fmt.Sprintf("%.0f", depth),
			report.Dur(secs(qp99)), report.Dur(secs(tp50)), report.Dur(secs(tp99)))
	}
	tab.Fprint(w)
}

func hitRate(hits, misses float64) string {
	if hits+misses == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%.0f/%.0f (%.0f%%)", hits, hits+misses, 100*hits/(hits+misses))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
