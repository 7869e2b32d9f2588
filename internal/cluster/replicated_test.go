package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/tpch"
)

// TestReplicatedStreamLeavesOnce runs plans over the replicated nation
// table on 3 servers, under both placements and every conformance options
// row, against the 1-server result. Every server holds all of nation, so
// only the coordinator's copy may reach a pipeline breaker or leave its
// server through a gather or a shuffle: the scan alone returns 25 rows,
// not 75; its top 5 are keys 0–4, not 0,0,0,1,1; as the probe of a join
// with supplier it matches each supplier once, also when the join is
// skew-adaptive (whose hot-key round needs every server's probe); as the
// filtered build of a group-join each nation's count is not split over
// the servers, and no semi-join filter waits for builds that only the
// coordinator runs; and a group-join of two replicated inputs is
// replicated too.
func TestReplicatedStreamLeavesOnce(t *testing.T) {
	const sf = 0.01
	db := tpch.Generate(sf, 42)
	nation := func() *plan.Node { return plan.Scan("nation", tpch.SchemaOf("nation")) }
	supplier := func() *plan.Node { return plan.Scan("supplier", tpch.SchemaOf("supplier")) }
	shapes := map[string]func() *plan.Node{
		"scan": nation,
		"topk": func() *plan.Node {
			n := nation()
			return n.OrderBy([]op.SortKey{{Col: n.Col("n_nationkey")}}, 5)
		},
		"join-probe": func() *plan.Node {
			return nation().Join(supplier(), []string{"n_nationkey"}, []string{"s_nationkey"},
				plan.JoinSpec{Type: op.Inner, ProbeOut: []string{"n_name"}, BuildOut: []string{"s_suppkey"}})
		},
		"skew-join-probe": func() *plan.Node {
			return nation().Join(supplier(), []string{"n_nationkey"}, []string{"s_nationkey"},
				plan.JoinSpec{Type: op.Inner, Strategy: plan.SkewAdaptive, ProbeOut: []string{"n_name"}, BuildOut: []string{"s_suppkey"}})
		},
		"groupjoin-replicated": func() *plan.Node {
			return nation().GroupJoin(plan.Scan("region", tpch.SchemaOf("region")), []string{"n_regionkey"}, []string{"r_regionkey"},
				op.AggSpec{Kind: op.Count, Name: "nations"})
		},
		"groupjoin-build": func() *plan.Node {
			n := nation()
			n = n.Select(op.I64LT(n.Col("n_nationkey"), 20))
			return supplier().GroupJoin(n, []string{"s_nationkey"}, []string{"n_nationkey"},
				op.AggSpec{Kind: op.Count, Name: "suppliers"})
		},
	}
	run := func(t *testing.T, c *Cluster, name string, po plan.Options) []string {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, _, err := c.RunContext(ctx, plan.NewQuery(name, shapes[name]()), WithPlan(po))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rowSet(res)
	}
	for _, partitioned := range []bool{false, true} {
		one := newTPCHClusterN(t, 1)
		one.LoadTPCH(db, partitioned)
		three := newTPCHClusterN(t, 3)
		three.LoadTPCH(db, partitioned)
		for _, name := range slices.Sorted(maps.Keys(shapes)) {
			want := run(t, one, name, plan.Options{})
			for _, row := range slices.Sorted(maps.Keys(conformanceOptions)) {
				t.Run(fmt.Sprintf("partitioned=%t/%s/%s", partitioned, name, row), func(t *testing.T) {
					if got := run(t, three, name, conformanceOptions[row]); !slices.Equal(got, want) {
						t.Errorf("%d rows on 3 servers, %d on 1; the first on 3: %q, on 1: %q",
							len(got), len(want), got[:min(6, len(got))], want[:min(6, len(want))])
					}
				})
			}
		}
	}
}
