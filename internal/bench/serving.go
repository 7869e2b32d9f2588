package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/queries"
	"hsqp/internal/report"
	"hsqp/internal/serve"
)

// serving measures the serving tier end to end over a loopback socket:
// executed requests (statement build + per-server compile + execution,
// result cache bypassed) and result-cache hits (no execution at all), then
// a mixed-tenant phase that exercises the weighted-fair admission under
// contention and reports per-tenant latency percentiles. SF 0.01, 2 slots,
// statements q1, q5, q6, q12, q14; -full doubles the samples.
func serving(w io.Writer, a Args) error {
	const (
		sf          = 0.01
		slots       = 2 // concurrent execution slots
		fairStreams = 2 // client connections per tenant in the fairness phase
	)
	stmts := []int{1, 5, 6, 12, 14}
	iters, fairRequests := 5, 10 // warm samples per statement per phase; requests per fairness connection
	if a.Full {
		iters, fairRequests = 10, 20
	}
	servers := a.Setup.withDefaults().Servers

	cfg := Setup{Servers: servers, TimeScale: 0.005}.config(cluster.RDMA, true)
	cfg.MorselSize = 4096
	cfg.MessageSize = 64 * 1024
	c, err := load(cfg, Workload{SF: sf}.fill)
	if err != nil {
		return err
	}
	defer c.Close()

	srv := serve.New(serve.Config{
		Cluster: c,
		SF:      sf,
		Seed:    42,
		Tenants: map[string]int{"heavy": 4, "light": 1},
		Slots:   slots,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(lis)
	defer srv.Shutdown()
	addr := lis.Addr().String()

	cl, err := serve.Dial(addr, "bench")
	if err != nil {
		return err
	}
	defer cl.Close()

	stmt := func(q int) string { return fmt.Sprintf("q%d", q) }
	bypass := serve.ExecOpts{BypassResultCache: true}

	// Warm the engine before timing anything: the first-ever execution of
	// a query pays worker-pool spin-up and cold data structures that have
	// nothing to do with serving.
	for _, q := range stmts {
		qp, err := queries.Build(q, queries.Params{SF: sf})
		if err != nil {
			return err
		}
		if _, _, err := c.RunContext(context.Background(), qp); err != nil {
			return fmt.Errorf("warmup q%d: %w", q, err)
		}
	}

	// sample times iters rounds over the statements and checks that every
	// request took the expected path.
	sample := func(opts serve.ExecOpts, wantHit bool) ([]time.Duration, map[int][]time.Duration, error) {
		var all []time.Duration
		byQ := map[int][]time.Duration{}
		for i := 0; i < iters; i++ {
			for _, q := range stmts {
				_, st, err := cl.ExecWithOpts(stmt(q), opts)
				if err != nil {
					return nil, nil, fmt.Errorf("q%d: %w", q, err)
				}
				if st.ResultHit != wantHit {
					return nil, nil, fmt.Errorf("q%d: result-cache hit %v, want %v", q, st.ResultHit, wantHit)
				}
				all = append(all, st.Wall)
				byQ[q] = append(byQ[q], st.Wall)
			}
		}
		return all, byQ, nil
	}

	// Phase 1 — executed: the result cache is bypassed, so every request
	// builds its statement, compiles it on every server and executes.
	executed, executedByQ, err := sample(bypass, false)
	if err != nil {
		return fmt.Errorf("executed phase: %w", err)
	}

	// Phase 2 — result-cache hits: one priming execution per statement
	// fills the cache, then every repeat is served from encoded bytes.
	for _, q := range stmts {
		if _, _, err := cl.Exec(stmt(q)); err != nil {
			return fmt.Errorf("prime q%d: %w", q, err)
		}
	}
	resultHit, resultHitByQ, err := sample(serve.ExecOpts{}, true)
	if err != nil {
		return fmt.Errorf("result-hit phase: %w", err)
	}

	// The speedup is executed / result-hit, paired per query (that query's
	// two medians) and then averaged — pooling across queries of different
	// cost would compare apples to oranges.
	var speedup float64
	var paired int
	for _, q := range stmts {
		if hit := percentile(resultHitByQ[q], 0.50); hit > 0 {
			speedup += float64(percentile(executedByQ[q], 0.50)) / float64(hit)
			paired++
		}
	}
	if paired > 0 {
		speedup /= float64(paired)
	}

	// Phase 3 — fairness: heavy (weight 4) and light (weight 1) tenants
	// saturate the slots with cache-bypassed executions; the QoS snapshot
	// then carries per-tenant queue/total p50/p99.
	var wg sync.WaitGroup
	errCh := make(chan error, 2*fairStreams)
	for _, tenant := range []string{"heavy", "light"} {
		for i := 0; i < fairStreams; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				tc, err := serve.Dial(addr, tenant)
				if err != nil {
					errCh <- err
					return
				}
				defer tc.Close()
				for r := 0; r < fairRequests; r++ {
					if _, _, err := tc.ExecWithOpts("q6", bypass); err != nil {
						errCh <- err
						return
					}
				}
			}(tenant)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return fmt.Errorf("fairness phase: %w", err)
	}
	tab := &report.Table{
		Title:  fmt.Sprintf("Serving paths (SF %g, %d servers, %d slots, loopback TCP)", sf, servers, slots),
		Header: []string{"path", "samples", "p50"},
	}
	tab.Add("executed (build+compile+exec)", fmt.Sprintf("%d", len(executed)), report.Dur(percentile(executed, 0.50)))
	tab.Add("result-cache hit (no exec)", fmt.Sprintf("%d", len(resultHit)), report.Dur(percentile(resultHit, 0.50)))
	tab.Fprint(w)
	fmt.Fprintf(w, "result-cache speedup: %.2fx\n", speedup)

	ft := &report.Table{
		Title:  "Weighted-fair admission (heavy w=4 vs light w=1, saturated)",
		Header: []string{"tenant", "weight", "served", "queue p50", "queue p99", "total p50", "total p99"},
	}
	tenants := srv.TenantStats()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })
	for _, ts := range tenants {
		if ts.Tenant == "heavy" || ts.Tenant == "light" {
			ft.Add(ts.Tenant, fmt.Sprintf("%d", ts.Weight), fmt.Sprintf("%d", ts.Served),
				report.Dur(ts.QueueP50), report.Dur(ts.QueueP99), report.Dur(ts.TotalP50), report.Dur(ts.TotalP99))
		}
	}
	ft.Fprint(w)
	return nil
}
