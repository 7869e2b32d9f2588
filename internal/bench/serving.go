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
	"hsqp/internal/serve"
)

// Serving measures the serving tier end to end over a loopback socket:
// executed requests (statement build + per-server compile + execution,
// result cache bypassed) and result-cache hits (no execution at all), then
// a mixed-tenant phase that exercises the weighted-fair admission under
// contention and reports per-tenant latency percentiles.
type Serving struct {
	Servers int     // cluster size (default 3)
	SF      float64 // scale factor (default 0.01)
	Slots   int     // concurrent execution slots (default 2)
	Iters   int     // warm samples per query per phase (default 5)
	Queries []int   // statements (default 1, 5, 6, 12, 14)

	// Fairness phase: per-tenant client streams and requests per stream.
	FairStreams  int // client connections per tenant (default 2)
	FairRequests int // requests per connection (default 10)
}

// ServingResult is the measured serving-path latency profile.
type ServingResult struct {
	ExecutedP50  time.Duration // build + compile + execute (result cache bypassed)
	ResultHitP50 time.Duration // cached bytes, no execution

	// ResultSpeedup is executed / result-hit, paired per query (that
	// query's two medians) and then averaged — pooling across queries of
	// different cost would compare apples to oranges.
	ResultSpeedup float64

	Tenants []serve.TenantStats // fairness-phase snapshot (heavy w=4, light w=1)
}

func (s Serving) defaults() Serving {
	if s.Servers <= 0 {
		s.Servers = 3
	}
	if s.SF <= 0 {
		s.SF = 0.01
	}
	if s.Slots <= 0 {
		s.Slots = 2
	}
	if s.Iters <= 0 {
		s.Iters = 5
	}
	if len(s.Queries) == 0 {
		s.Queries = []int{1, 5, 6, 12, 14}
	}
	if s.FairStreams <= 0 {
		s.FairStreams = 2
	}
	if s.FairRequests <= 0 {
		s.FairRequests = 10
	}
	return s
}

// Run starts an in-process server, drives it through the wire protocol and
// reports latency per serving path. w may be nil for silent runs.
func (s Serving) Run(w io.Writer) (ServingResult, error) {
	s = s.defaults()
	var res ServingResult

	c, err := load(cluster.Config{
		Servers:          s.Servers,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		TimeScale:        0.005,
		MorselSize:       4096,
		MessageSize:      64 * 1024,
	}, Workload{SF: s.SF})
	if err != nil {
		return res, err
	}
	defer c.Close()

	srv := serve.New(serve.Config{
		Cluster: c,
		SF:      s.SF,
		Seed:    42,
		Tenants: map[string]int{"heavy": 4, "light": 1},
		Slots:   s.Slots,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	go srv.Serve(lis)
	defer srv.Shutdown()
	addr := lis.Addr().String()

	cl, err := serve.Dial(addr, "bench")
	if err != nil {
		return res, err
	}
	defer cl.Close()

	stmt := func(q int) string { return fmt.Sprintf("q%d", q) }
	bypass := serve.ExecOpts{BypassResultCache: true}

	// Warm the engine before timing anything: the first-ever execution of
	// a query pays worker-pool spin-up and cold data structures that have
	// nothing to do with serving.
	for _, q := range s.Queries {
		qp, err := queries.Build(q, queries.Params{SF: s.SF})
		if err != nil {
			return res, err
		}
		if _, _, err := c.RunContext(context.Background(), qp); err != nil {
			return res, fmt.Errorf("warmup q%d: %w", q, err)
		}
	}

	// sample times Iters rounds over the statements and checks that every
	// request took the expected path.
	sample := func(opts serve.ExecOpts, wantHit bool) ([]time.Duration, map[int][]time.Duration, error) {
		var all []time.Duration
		byQ := map[int][]time.Duration{}
		for i := 0; i < s.Iters; i++ {
			for _, q := range s.Queries {
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
		return res, fmt.Errorf("executed phase: %w", err)
	}

	// Phase 2 — result-cache hits: one priming execution per statement
	// fills the cache, then every repeat is served from encoded bytes.
	for _, q := range s.Queries {
		if _, _, err := cl.Exec(stmt(q)); err != nil {
			return res, fmt.Errorf("prime q%d: %w", q, err)
		}
	}
	resultHit, resultHitByQ, err := sample(serve.ExecOpts{}, true)
	if err != nil {
		return res, fmt.Errorf("result-hit phase: %w", err)
	}

	res.ExecutedP50 = percentile(executed, 0.50)
	res.ResultHitP50 = percentile(resultHit, 0.50)
	var sum float64
	var paired int
	for _, q := range s.Queries {
		if hit := percentile(resultHitByQ[q], 0.50); hit > 0 {
			sum += float64(percentile(executedByQ[q], 0.50)) / float64(hit)
			paired++
		}
	}
	if paired > 0 {
		res.ResultSpeedup = sum / float64(paired)
	}

	// Phase 3 — fairness: heavy (weight 4) and light (weight 1) tenants
	// saturate the slots with cache-bypassed executions; the QoS snapshot
	// then carries per-tenant queue/total p50/p99.
	var wg sync.WaitGroup
	errCh := make(chan error, 2*s.FairStreams)
	for _, tenant := range []string{"heavy", "light"} {
		for i := 0; i < s.FairStreams; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				tc, err := serve.Dial(addr, tenant)
				if err != nil {
					errCh <- err
					return
				}
				defer tc.Close()
				for r := 0; r < s.FairRequests; r++ {
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
		return res, fmt.Errorf("fairness phase: %w", err)
	}
	for _, ts := range srv.TenantStats() {
		if ts.Tenant == "heavy" || ts.Tenant == "light" {
			res.Tenants = append(res.Tenants, ts)
		}
	}
	sort.Slice(res.Tenants, func(i, j int) bool { return res.Tenants[i].Tenant < res.Tenants[j].Tenant })

	if w != nil {
		tab := &Table{
			Title:  fmt.Sprintf("Serving paths (SF %g, %d servers, %d slots, loopback TCP)", s.SF, s.Servers, s.Slots),
			Header: []string{"path", "samples", "p50"},
		}
		tab.Add("executed (build+compile+exec)", fmt.Sprintf("%d", len(executed)), Dur(res.ExecutedP50))
		tab.Add("result-cache hit (no exec)", fmt.Sprintf("%d", len(resultHit)), Dur(res.ResultHitP50))
		tab.Fprint(w)
		fmt.Fprintf(w, "result-cache speedup: %.2fx\n", res.ResultSpeedup)

		ft := &Table{
			Title:  "Weighted-fair admission (heavy w=4 vs light w=1, saturated)",
			Header: []string{"tenant", "weight", "served", "queue p50", "queue p99", "total p50", "total p99"},
		}
		for _, ts := range res.Tenants {
			ft.Add(ts.Tenant, fmt.Sprintf("%d", ts.Weight), fmt.Sprintf("%d", ts.Served),
				Dur(ts.QueueP50), Dur(ts.QueueP99), Dur(ts.TotalP50), Dur(ts.TotalP99))
		}
		ft.Fprint(w)
	}
	return res, nil
}
