package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/fabric"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/sim"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// TestMuxStateFreedAcrossQueries is the regression test for the routing
// leak: the multiplexer used to keep registered-exchange and pending
// entries forever. 100 sequential queries must leave every node's routing
// tables empty.
func TestMuxStateFreedAcrossQueries(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 3, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	for i := 0; i < 100; i++ {
		got := runGroupByQuery(t, c)
		if len(got) != 7 {
			t.Fatalf("query %d: %d groups, want 7", i, len(got))
		}
		for _, n := range c.Nodes {
			ex, pend := n.Mux.TableSizes()
			if ex != 0 || pend != 0 {
				t.Fatalf("after query %d: server %d holds %d exchanges, %d pending entries; want 0/0",
					i, n.ID, ex, pend)
			}
		}
	}
}

// concurrentConformanceQueries is the mixed workload of the acceptance
// test: k queries over TPC-H Q1/Q5/Q12.
func concurrentConformanceQueries(sf float64) []*plan.Query {
	var qs []*plan.Query
	for _, qn := range []int{1, 5, 12, 12, 5, 1} {
		qs = append(qs, queries.MustBuild(qn, queries.Params{SF: sf}))
	}
	return qs
}

// TestConcurrentQueriesMatchSerial: k mixed queries (Q1/Q5/Q12) executed
// concurrently over one cluster must produce byte-identical (canonical
// row order) results to the same queries run back-to-back serially.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	const sf = 0.05
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t)
	c.LoadTPCH(db, false)

	qs := concurrentConformanceQueries(sf)
	want := make([][]string, len(qs))
	for i, q := range qs {
		res, _, err := c.RunContext(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %s: %v", q.Name, err)
		}
		want[i] = rowSet(res)
	}

	s := c.NewSession(SessionConfig{MaxConcurrent: 4, MaxQueued: len(qs)})
	defer s.Close()
	results := make([]*storage.Batch, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range concurrentConformanceQueries(sf) {
		wg.Add(1)
		go func(i int, q *plan.Query) {
			defer wg.Done()
			results[i], _, errs[i] = s.RunContext(context.Background(), q)
		}(i, q)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", qs[i].Name, errs[i])
		}
		got := rowSet(res)
		if len(got) != len(want[i]) {
			t.Fatalf("query %d (%s): %d rows concurrent vs %d serial", i, qs[i].Name, len(got), len(want[i]))
		}
		for r := range got {
			if got[r] != want[i][r] {
				t.Fatalf("query %d (%s) row %d differs:\n concurrent: %s\n serial:     %s",
					i, qs[i].Name, r, got[r], want[i][r])
			}
		}
	}
}

// TestSessionAdmissionControl pins the overload semantics: when every
// execution slot and every queue position is taken, Run fails fast with
// ErrOverloaded; once capacity frees up, queries are admitted again.
func TestSessionAdmissionControl(t *testing.T) {
	orders := testOrders(200)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 2, MaxQueued: 1})
	if s.q.slots != 2 || s.q.maxQ != 1 {
		t.Fatalf("config defaults drifted: %d slots, %d queued", s.q.slots, s.q.maxQ)
	}

	// Fill both slots and the one queue position by hand — deterministic,
	// no timing dependence on real queries.
	var held [2]*tenant
	for i := range held {
		held[i] = mustAcquire(t, s.q, "")
	}
	ctx, leave := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, err := s.q.acquire(ctx, "")
		left <- err
	}()
	waitFor(t, "the queue position to fill", func() bool { return s.Queued() == 1 })
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded session returned %v, want ErrOverloaded", err)
	}
	// One caller leaves the queue: the next query must be admitted and run
	// once a slot frees.
	leave()
	<-left
	ran := make(chan error, 1)
	go func() {
		_, _, err := s.RunContext(context.Background(), groupByQueryPlan())
		ran <- err
	}()
	waitFor(t, "the query to take the freed queue position", func() bool { return s.Queued() == 1 })
	for _, slot := range held {
		s.q.release(slot)
	}
	if err := <-ran; err != nil {
		t.Fatalf("run after capacity freed: %v", err)
	}

	s.Close()
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed session returned %v, want ErrSessionClosed", err)
	}
}

// TestPerQueryCancellation: cancelling one query aborts it cluster-wide
// while the engine keeps serving others.
func TestPerQueryCancellation(t *testing.T) {
	orders := testOrders(2000)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.RunContext(cancelled, groupByQueryPlan())
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("pre-cancelled query returned %v, want cancellation error", err)
	}

	// The same cluster must still execute queries normally afterwards.
	got := runGroupByQuery(t, c)
	if len(got) != 7 {
		t.Fatalf("post-cancel query broken: %d groups, want 7", len(got))
	}
}

// TestCancelledAttemptIsErrCancelled pins the cancellation contract: a
// query whose context is cancelled, before it starts or mid-run, fails
// with an error matching engine.ErrCancelled and evicts nobody.
func TestCancelledAttemptIsErrCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c, err := New(Config{
		Servers:          2,
		WorkersPerServer: 2,
		TimeScale:        0.01,
		Rate:             fabric.IB4xQDR,
		MorselSize:       64,
		// Cancel once every server's run is launched; the frozen
		// coordinator below keeps the runs from finishing first.
		PhaseHook: func(phase sim.QueryPhase) {
			if phase == sim.PhaseExecuting {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.LoadTable("orders", testOrders(2000), storage.PlacementChunked, 0)
	c.Nodes[0].Mux.Freeze(true)
	_, _, err = c.RunContext(ctx, groupByQueryPlan())
	c.Nodes[0].Mux.Freeze(false)
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("query cancelled mid-run returned %v, want engine.ErrCancelled", err)
	}
	if _, _, err := c.RunContext(ctx, groupByQueryPlan()); !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("pre-cancelled query returned %v, want engine.ErrCancelled", err)
	}
	if c.Servers() != 2 {
		t.Fatalf("cancellation must not evict servers: %d left", c.Servers())
	}
}

// TestCancelledQueryReturnsBuffers: a query cancelled mid-run hands back
// every pooled message buffer, on every server — those its exchanges and
// control rounds still queue (Mux.CloseQuery) and those its unfinalized
// sends were filling (the scheduler's abort release) — so later queries
// recycle them instead of registering fresh ones.
func TestCancelledQueryReturnsBuffers(t *testing.T) {
	const sf = 0.01
	c, err := New(Config{Servers: 3, WorkersPerServer: 2, Transport: TCPGbE, TimeScale: 1, MessageSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.LoadTPCH(tpch.Generate(sf, 42), false)
	for _, qn := range []int{3, 5, 9, 18} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, _, err := c.RunContext(ctx, queries.MustBuild(qn, queries.Params{SF: sf}))
		cancel()
		if err == nil {
			t.Logf("q%d finished inside its deadline", qn)
		}
		// Messages still on the wire land on a closed query and are
		// dropped; wait for them.
		deadline := time.Now().Add(5 * time.Second)
		for sid, n := range c.Nodes {
			for {
				st := n.Pool.Stats()
				if st.Allocated+st.Recycled == st.Returned {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("q%d server %d: %d buffers taken, %d returned", qn, sid, st.Allocated+st.Recycled, st.Returned)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// groupByQueryPlan builds the sum-by-customer plan used by the session
// tests (same shape as runGroupByQuery).
func groupByQueryPlan() *plan.Query {
	schema := storage.NewSchema(
		storage.Field{Name: "o_key", Type: storage.TInt64},
		storage.Field{Name: "o_cust", Type: storage.TInt64},
		storage.Field{Name: "o_price", Type: storage.TDecimal},
	)
	root := plan.Scan("orders", schema).
		GroupBy([]string{"o_cust"},
			op.AggSpec{Kind: op.Sum, Name: "rev", Arg: op.Col(2), ArgType: storage.TDecimal})
	return plan.NewQuery("sum-by-cust", root)
}
