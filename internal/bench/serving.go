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
// cold statements (plan build + per-server validation compile + execution),
// plan-cache hits (execution only, result cache bypassed) and result-cache
// hits (no execution at all), then a mixed-tenant phase that exercises the
// weighted-fair admission under contention and reports per-tenant latency
// percentiles.
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
	ColdP50      time.Duration // build + prepare + execute
	PlanHitP50   time.Duration // execute only (result cache bypassed)
	ResultHitP50 time.Duration // cached bytes, no execution

	// Speedups are paired per query (cold sample vs that query's warm
	// median), then averaged — pooling across queries of different cost
	// would compare apples to oranges.
	PlanSpeedup   float64 // cold / plan-hit
	ResultSpeedup float64 // cold / result-hit

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
	// a query pays worker-pool spin-up, codec-cache fills and cold data
	// structures that have nothing to do with plan preparation. Direct
	// cluster runs leave the server's plan cache untouched, so the cold
	// phase below still pays build + prepare — and only that — on top of a
	// warm execution path.
	for _, q := range s.Queries {
		qp, err := queries.Build(q, queries.Params{SF: s.SF})
		if err != nil {
			return res, err
		}
		if _, _, err := c.RunContext(context.Background(), qp); err != nil {
			return res, fmt.Errorf("warmup q%d: %w", q, err)
		}
	}

	// Phase 1 — cold: each statement's first request pays plan build, the
	// per-server validation compile and execution. A statement is cold only
	// once per epoch, so cold samples come from distinct queries.
	var cold, planHit, resultHit []time.Duration
	coldByQ := map[int]time.Duration{}
	for _, q := range s.Queries {
		_, st, err := cl.ExecWithOpts(stmt(q), bypass)
		if err != nil {
			return res, fmt.Errorf("cold q%d: %w", q, err)
		}
		if st.PlanHit {
			return res, fmt.Errorf("cold q%d unexpectedly hit the plan cache", q)
		}
		cold = append(cold, st.Wall)
		coldByQ[q] = st.Wall
	}

	// Phase 2 — plan-cache hits: same statements again, result cache still
	// bypassed, so the full execution runs on a cached plan.
	planHitByQ := map[int][]time.Duration{}
	for i := 0; i < s.Iters; i++ {
		for _, q := range s.Queries {
			_, st, err := cl.ExecWithOpts(stmt(q), bypass)
			if err != nil {
				return res, fmt.Errorf("planhit q%d: %w", q, err)
			}
			if !st.PlanHit {
				return res, fmt.Errorf("warm q%d missed the plan cache", q)
			}
			planHit = append(planHit, st.Wall)
			planHitByQ[q] = append(planHitByQ[q], st.Wall)
		}
	}

	// Phase 3 — result-cache hits: one priming execution per statement
	// fills the cache, then every repeat is served from encoded bytes.
	for _, q := range s.Queries {
		if _, _, err := cl.Exec(stmt(q)); err != nil {
			return res, fmt.Errorf("prime q%d: %w", q, err)
		}
	}
	resultHitByQ := map[int][]time.Duration{}
	for i := 0; i < s.Iters; i++ {
		for _, q := range s.Queries {
			_, st, err := cl.Exec(stmt(q))
			if err != nil {
				return res, fmt.Errorf("resulthit q%d: %w", q, err)
			}
			if !st.ResultHit {
				return res, fmt.Errorf("repeat q%d missed the result cache", q)
			}
			resultHit = append(resultHit, st.Wall)
			resultHitByQ[q] = append(resultHitByQ[q], st.Wall)
		}
	}

	res.ColdP50 = percentile(cold, 0.50)
	res.PlanHitP50 = percentile(planHit, 0.50)
	res.ResultHitP50 = percentile(resultHit, 0.50)
	pairedSpeedup := func(warm map[int][]time.Duration) float64 {
		var sum float64
		var n int
		for _, q := range s.Queries {
			w := percentile(warm[q], 0.50)
			if w > 0 {
				sum += float64(coldByQ[q]) / float64(w)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	res.PlanSpeedup = pairedSpeedup(planHitByQ)
	res.ResultSpeedup = pairedSpeedup(resultHitByQ)

	// Phase 4 — fairness: heavy (weight 4) and light (weight 1) tenants
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
		tab.Add("cold (build+prepare+exec)", fmt.Sprintf("%d", len(cold)), Dur(res.ColdP50))
		tab.Add("plan-cache hit (exec only)", fmt.Sprintf("%d", len(planHit)), Dur(res.PlanHitP50))
		tab.Add("result-cache hit (no exec)", fmt.Sprintf("%d", len(resultHit)), Dur(res.ResultHitP50))
		tab.Fprint(w)
		fmt.Fprintf(w, "plan-cache speedup: %.2fx   result-cache speedup: %.2fx\n",
			res.PlanSpeedup, res.ResultSpeedup)

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
