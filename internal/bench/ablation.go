package bench

import (
	"context"
	"io"
	"strconv"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/report"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// preAggAblation quantifies the pre-aggregation optimization of
// Figure 6(c) on the aggregation-heavy queries: group-bys either
// pre-aggregate locally before shuffling (the paper's plan) or ship raw
// rows and aggregate once after the exchange.
func preAggAblation(w io.Writer, a Args) error {
	wl := a.Workload
	wl.Queries = []int{1, 13, 15, 20}
	res, err := RunVariants(a.Setup.config(cluster.RDMA, true), wl, plan.Options{}, plan.Options{DisablePreAgg: true})
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:  "Ablation: pre-aggregation before group-by exchanges (Figure 6(c))",
		Header: []string{"variant", "time", "data shuffled"},
	}
	tab.Add("pre-aggregate", report.Dur(res[0].Total), report.MB(res[0].Stats.BytesSent))
	tab.Add("raw shuffle", report.Dur(res[1].Total), report.MB(res[1].Stats.BytesSent))
	tab.Fprint(w)
	return nil
}

// q18AggThenJoin is TPC-H Q18 without the groupjoin: aggregate lineitem by
// orderkey into a separate hash table, then hash-join orders against it.
func q18AggThenJoin() *plan.Query {
	l := plan.Scan("lineitem", tpch.LineitemSchema())
	l = l.Project("l_orderkey", "l_quantity")
	sums := l.GroupBy([]string{"l_orderkey"},
		op.AggSpec{Kind: op.Sum, Name: "sum_qty", Arg: op.Col(1), ArgType: storage.TDecimal})
	o := plan.Scan("orders", tpch.OrdersSchema())
	o = o.ProjectCols([]int{
		o.Col("o_orderkey"), o.Col("o_custkey"), o.Col("o_totalprice"), o.Col("o_orderdate"),
	})
	j := o.Join(sums, []string{"o_orderkey"}, []string{"l_orderkey"},
		plan.JoinSpec{Type: op.Inner,
			ProbeOut: []string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"},
			BuildOut: []string{"sum_qty"}})
	big := j.Select(op.I64GT(j.Col("sum_qty"), 300*100))
	cust := plan.Scan("customer", tpch.CustomerSchema())
	f := big.Join(cust, []string{"o_custkey"}, []string{"c_custkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"o_orderkey", "o_totalprice", "o_orderdate", "sum_qty"},
			BuildOut: []string{"c_name", "c_custkey"}})
	f = f.Project("c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty")
	f = f.OrderBy([]op.SortKey{
		{Col: f.Col("o_totalprice"), Desc: true}, {Col: f.Col("o_orderdate")},
	}, 100)
	return plan.NewQuery("q18-agg-then-join", f)
}

// groupJoinAblation compares HyPer's Γ⨝ groupjoin (used by Q18's plan)
// against the classical aggregate-then-join rewrite of the same query, on
// one loaded cluster.
func groupJoinAblation(w io.Writer, a Args) error {
	warmup()
	c, err := load(a.Setup.config(cluster.RDMA, true), a.Workload.fill)
	if err != nil {
		return err
	}
	defer c.Close()

	tab := &report.Table{
		Title:  "Ablation: Q18 via groupjoin (Γ⨝) vs aggregate-then-join",
		Header: []string{"plan", "time", "rows"},
	}
	for _, v := range []struct {
		name string
		q    *plan.Query
	}{
		{"groupjoin", queries.MustBuild(18, queries.Params{SF: a.Workload.withDefaults().SF})},
		{"agg-then-join", q18AggThenJoin()},
	} {
		var best time.Duration
		var rows int
		for r := 0; r < 2; r++ {
			res, stats, err := c.RunContext(context.Background(), v.q)
			if err != nil {
				return err
			}
			if r == 0 || stats.Duration < best {
				best = stats.Duration
			}
			rows = res.Rows()
		}
		tab.Add(v.name, report.Dur(best), strconv.Itoa(rows))
	}
	tab.Fprint(w)
	return nil
}
