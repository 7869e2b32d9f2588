package cluster

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"hsqp/internal/fabric"
	"hsqp/internal/leakcheck"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// testOrders builds a small orders-like batch.
func testOrders(n int) *storage.Batch {
	schema := storage.NewSchema(
		storage.Field{Name: "o_key", Type: storage.TInt64},
		storage.Field{Name: "o_cust", Type: storage.TInt64},
		storage.Field{Name: "o_price", Type: storage.TDecimal},
	)
	b := storage.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i+1), int64(i%7), int64((i%100)*100))
	}
	return b
}

func testCustomers(n int) *storage.Batch {
	schema := storage.NewSchema(
		storage.Field{Name: "c_key", Type: storage.TInt64},
		storage.Field{Name: "c_name", Type: storage.TString},
	)
	b := storage.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i), fmt.Sprintf("cust-%d", i))
	}
	return b
}

func newTestCluster(t *testing.T, servers int, transport TransportKind, scheduling bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Servers:          servers,
		WorkersPerServer: 4,
		Transport:        transport,
		Scheduling:       scheduling,
		TimeScale:        0.01, // fast tests: network nearly free
		Rate:             fabric.IB4xQDR,
		MorselSize:       64,
		MessageSize:      8 * 1024,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// expectedGroupSums computes sum(o_price) per o_cust directly.
func expectedGroupSums(orders *storage.Batch) map[int64]int64 {
	out := map[int64]int64{}
	for i := 0; i < orders.Rows(); i++ {
		out[orders.Cols[1].I64[i]] += orders.Cols[2].I64[i]
	}
	return out
}

func runGroupByQuery(t *testing.T, c *Cluster, opts ...RunOption) map[int64]int64 {
	t.Helper()
	res, _, err := c.RunContext(context.Background(), groupByQueryPlan(), opts...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := map[int64]int64{}
	for i := 0; i < res.Rows(); i++ {
		got[res.Cols[0].I64[i]] = res.Cols[1].I64[i]
	}
	return got
}

func TestDistributedGroupBy(t *testing.T) {
	orders := testOrders(1000)
	want := expectedGroupSums(orders)
	for _, transport := range []TransportKind{RDMA, TCPoIB, TCPGbE} {
		for _, servers := range []int{1, 2, 4} {
			for _, sched := range []bool{false, true} {
				name := fmt.Sprintf("%v/%dsrv/sched=%v", transport, servers, sched)
				t.Run(name, func(t *testing.T) {
					c := newTestCluster(t, servers, transport, sched)
					c.LoadTable("orders", orders, storage.PlacementChunked, 0)
					// Hybrid and classic exchange on the same loaded cluster.
					for _, classic := range []bool{false, true} {
						got := runGroupByQuery(t, c, WithPlan(plan.Options{Classic: classic}))
						if len(got) != len(want) {
							t.Fatalf("classic=%v: got %d groups, want %d", classic, len(got), len(want))
						}
						for k, v := range want {
							if got[k] != v {
								t.Errorf("classic=%v group %d: got %d want %d", classic, k, got[k], v)
							}
						}
					}
				})
			}
		}
	}
}

func TestDistributedJoin(t *testing.T) {
	orders := testOrders(500)
	customers := testCustomers(7)
	oschema := orders.Schema
	cschema := customers.Schema

	// Expected: count of join results = all orders (every o_cust in 0..6
	// matches), and revenue per customer name.
	want := expectedGroupSums(orders)

	for _, strategy := range []plan.JoinStrategy{plan.PartitionBoth, plan.BroadcastBuild} {
		for _, servers := range []int{1, 3} {
			t.Run(fmt.Sprintf("strat=%d/%dsrv", strategy, servers), func(t *testing.T) {
				c := newTestCluster(t, servers, RDMA, true)
				c.LoadTable("orders", orders, storage.PlacementChunked, 0)
				c.LoadTable("customers", customers, storage.PlacementChunked, 0)

				root := plan.Scan("orders", oschema).
					Join(plan.Scan("customers", cschema),
						[]string{"o_cust"}, []string{"c_key"},
						plan.JoinSpec{Type: op.Inner, Strategy: strategy}).
					GroupBy([]string{"c_key"},
						op.AggSpec{Kind: op.Sum, Name: "rev", Arg: op.Col(2), ArgType: storage.TDecimal},
						op.AggSpec{Kind: op.Count, Name: "cnt"})
				res, _, err := c.RunContext(context.Background(), plan.NewQuery("join-group", root))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Rows() != len(want) {
					t.Fatalf("got %d result rows, want %d", res.Rows(), len(want))
				}
				for i := 0; i < res.Rows(); i++ {
					k := res.Cols[0].I64[i]
					if res.Cols[1].I64[i] != want[k] {
						t.Errorf("cust %d: rev %d want %d", k, res.Cols[1].I64[i], want[k])
					}
				}
			})
		}
	}
}

func TestPartitionedPlacementLocalJoin(t *testing.T) {
	// Both relations partitioned on the join key: the join must be
	// co-located and ship (almost) nothing.
	orders := testOrders(600)
	customers := testCustomers(7)
	c := newTestCluster(t, 3, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementPartitioned, 1)       // by o_cust
	c.LoadTable("customers", customers, storage.PlacementPartitioned, 0) // by c_key

	root := plan.Scan("orders", orders.Schema).
		Join(plan.Scan("customers", customers.Schema),
			[]string{"o_cust"}, []string{"c_key"},
			plan.JoinSpec{Type: op.Inner}).
		GroupBy([]string{"c_key"},
			op.AggSpec{Kind: op.Count, Name: "cnt"})
	res, stats, err := c.RunContext(context.Background(), plan.NewQuery("colocated", root))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	total := int64(0)
	for i := 0; i < res.Rows(); i++ {
		total += res.Cols[1].I64[i]
	}
	if total != 600 {
		t.Fatalf("join produced %d rows, want 600", total)
	}
	// The join itself is local; only the group-by shuffle and the final
	// gather move data. o_cust == c_key is also the grouping key, so the
	// pre-aggregated groups are already on the right servers.
	t.Logf("bytes shipped: %d in %d messages", stats.BytesSent, stats.MessagesSent)
}

func TestTopKDistributed(t *testing.T) {
	orders := testOrders(300)
	c := newTestCluster(t, 2, RDMA, false)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	root := plan.Scan("orders", orders.Schema).
		OrderBy([]op.SortKey{{Col: 2, Desc: true}, {Col: 0}}, 10)
	res, _, err := c.RunContext(context.Background(), plan.NewQuery("topk", root))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Rows() != 10 {
		t.Fatalf("got %d rows, want 10", res.Rows())
	}
	// Verify against a straight sort.
	prices := make([]int64, orders.Rows())
	copy(prices, orders.Cols[2].I64)
	sort.Slice(prices, func(a, b int) bool { return prices[a] > prices[b] })
	for i := 0; i < 10; i++ {
		if res.Cols[2].I64[i] != prices[i] {
			t.Errorf("rank %d: price %d want %d", i, res.Cols[2].I64[i], prices[i])
		}
	}
}

// TestNewFailureStopsWorkerPools: a cluster that fails to wire its mesh
// (here: an unknown transport, rejected after every node's engine already
// started) must not leave the worker pools running.
func TestNewFailureStopsWorkerPools(t *testing.T) {
	before := leakcheck.Snapshot()
	if _, err := New(Config{Servers: 3, WorkersPerServer: 4, Transport: TransportKind(99)}); err == nil {
		t.Fatal("New accepted an unknown transport")
	}
	if got := leakcheck.Grown(before, nil); len(got) != 0 {
		t.Fatalf("failed New left goroutines running:\n%s", got)
	}
}
