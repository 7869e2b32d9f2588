package cluster

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hsqp/internal/exchange"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// rangeMaps returns the range map of every send in the compiled plans.
func rangeMaps(compiled []*plan.Compiled) []*exchange.RangeMap {
	var out []*exchange.RangeMap
	for _, cp := range compiled {
		for _, p := range cp.Pipelines {
			if s, ok := p.Sink.(*exchange.Send); ok && s.Ranges() != nil {
				out = append(out, s.Ranges())
			}
		}
	}
	return out
}

// compiledRangeMaps compiles query qn on every server of c and returns its
// sends' range maps.
func compiledRangeMaps(t *testing.T, c *Cluster, qn int, sf float64, po plan.Options) []*exchange.RangeMap {
	t.Helper()
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	compiled, release := compileTPCH(t, c, qn, sf, po)
	defer release()
	return rangeMaps(compiled)
}

// permuted returns b's rows in a seeded random order.
func permuted(b *storage.Batch, seed int64) *storage.Batch {
	out := storage.NewBatch(b.Schema, b.Rows())
	for _, i := range rand.New(rand.NewSource(seed)).Perm(b.Rows()) {
		out.AppendRowFrom(b, i)
	}
	return out
}

// matchesRef runs query qn on c and compares its rows with internal/ref's.
func matchesRef(t *testing.T, c *Cluster, db *tpch.Database, qn int, sf float64) {
	t.Helper()
	want, err := ref.Run(qn, db, sf)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.RunContext(context.Background(), queries.MustBuild(qn, queries.Params{SF: sf}))
	if err != nil {
		t.Fatalf("q%d: %v", qn, err)
	}
	if err := ref.Compare(qn, got, want); err != nil {
		t.Error(err)
	}
}

// TestRangeRouteFallsBackOnOverlap: under chunked placement lineitem lies
// in orderkey order across the servers and Q18 routes it by range; loaded
// with its rows permuted, its zones overlap, so no join of any TPC-H query
// routes by range, and every query still returns internal/ref's rows.
func TestRangeRouteFallsBackOnOverlap(t *testing.T) {
	const sf = 0.01
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t)
	c.LoadTPCH(db, false)
	if len(compiledRangeMaps(t, c, 18, sf, plan.Options{})) == 0 {
		t.Fatal("q18 on lineitem in key order: no send routes by range")
	}
	c.LoadTable("lineitem", permuted(db.Tables["lineitem"], 1), storage.PlacementChunked, 0)
	for _, qn := range queries.All() {
		if m := compiledRangeMaps(t, c, qn, sf, plan.Options{}); len(m) > 0 {
			t.Errorf("q%d routes %d sends by range over a permuted lineitem", qn, len(m))
		}
		matchesRef(t, c, db, qn, sf)
	}
}

// TestZoneMapsNeedEveryServer: a chunked table records each server's
// [min, max] of its non-nullable int64 and date columns, and none at all
// when a server's part is empty.
func TestZoneMapsNeedEveryServer(t *testing.T) {
	c := newTestCluster(t, 3, RDMA, false)
	c.LoadTable("orders", testOrders(6), storage.PlacementChunked, 0)
	ti, err := c.Nodes[1].lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	z := func(lo, hi int64) exchange.Zone { return exchange.Zone{Min: lo, Max: hi} }
	want := [][]exchange.Zone{{z(1, 2), z(3, 4), z(5, 6)}, {z(0, 1), z(2, 3), z(4, 5)}, nil}
	if len(ti.Zones) != len(want) {
		t.Fatalf("zones of %d columns, want %d", len(ti.Zones), len(want))
	}
	for col := range want {
		if !slices.Equal(ti.Zones[col], want[col]) {
			t.Errorf("column %d: zones %v, want %v", col, ti.Zones[col], want[col])
		}
	}
	c.LoadTable("orders", testOrders(2), storage.PlacementChunked, 0)
	for _, n := range c.Nodes {
		ti, err := n.lookup("orders")
		if err != nil {
			t.Fatal(err)
		}
		if ti.Zones != nil {
			t.Errorf("server %d: a table with an empty part has zones %v", n.ID, ti.Zones)
		}
	}
}

// TestRangeRouteNeverClassicOrSkew: the classic baseline and skew-adaptive
// joins keep their hash routes, also over inputs in key order.
func TestRangeRouteNeverClassicOrSkew(t *testing.T) {
	const sf = 0.01
	c := newTPCHCluster(t)
	c.LoadTPCH(tpch.Generate(sf, 42), false)
	for _, qn := range queries.All() {
		if m := compiledRangeMaps(t, c, qn, sf, plan.Options{Classic: true}); len(m) > 0 {
			t.Errorf("classic q%d routes %d sends by range", qn, len(m))
		}
	}
	orders := plan.Scan("orders", tpch.SchemaOf("orders")).Project("o_orderkey", "o_custkey")
	lineitem := plan.Scan("lineitem", tpch.SchemaOf("lineitem")).Project("l_orderkey", "l_quantity")
	for _, strategy := range []plan.JoinStrategy{plan.AutoStrategy, plan.SkewAdaptive} {
		q := plan.NewQuery("lineitem-orders", lineitem.Join(orders, []string{"l_orderkey"}, []string{"o_orderkey"},
			plan.JoinSpec{Type: op.Inner, Strategy: strategy}))
		c.memMu.RLock()
		qid := c.nextQueryID.Add(1)
		compiled, err := c.compileAll(c.Nodes, q, qid, plan.Options{})
		c.memMu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rangeMaps(compiled)) > 0; got != (strategy == plan.AutoStrategy) {
			t.Errorf("strategy %d: routes by range %t", strategy, got)
		}
		for _, n := range c.Nodes {
			n.Mux.CloseQuery(qid)
		}
	}
}

// TestRangeRouteMembership: the range maps are read off zone maps every
// install recomputes, so after AddServer (3 → 4) and after RemoveServer,
// Q18 and Q21 compile against maps over the new number of servers and
// still return internal/ref's rows.
func TestRangeRouteMembership(t *testing.T) {
	const sf = 0.01
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t)
	c.LoadTPCH(db, false)
	check := func(stage string) {
		t.Helper()
		for _, qn := range []int{18, 21} {
			maps := compiledRangeMaps(t, c, qn, sf, plan.Options{})
			if len(maps) == 0 {
				t.Errorf("%s: q%d routes no send by range", stage, qn)
			}
			for _, m := range maps {
				if len(m.Lo) != c.Servers() {
					t.Errorf("%s: q%d routes by a map over %d servers on %d", stage, qn, len(m.Lo), c.Servers())
				}
			}
			matchesRef(t, c, db, qn, sf)
		}
	}
	check("3 servers")
	if _, err := c.AddServer(); err != nil {
		t.Fatal(err)
	}
	check("after AddServer")
	if err := c.RemoveServer(1); err != nil {
		t.Fatal(err)
	}
	check("after RemoveServer")
}
