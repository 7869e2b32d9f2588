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
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// PreAggAblation quantifies the pre-aggregation optimization of
// Figure 6(c): group-bys either pre-aggregate locally before shuffling
// (the paper's plan) or ship raw rows and aggregate once after the
// exchange.
type PreAggAblation struct {
	SF float64
	Setup
}

// PreAggResult reports both variants.
type PreAggResult struct {
	With, Without           time.Duration
	BytesWith, BytesWithout uint64
}

// Run executes the ablation on the aggregation-heavy queries.
func (f PreAggAblation) Run(w io.Writer) (PreAggResult, error) {
	// Workload defaults SF to 0.05.
	wl := Workload{SF: f.SF, Queries: []int{1, 13, 15, 20}}
	res, err := RunVariants(f.config(cluster.RDMA, true), wl, plan.Options{}, plan.Options{DisablePreAgg: true})
	if err != nil {
		return PreAggResult{}, err
	}
	out := PreAggResult{
		With: res[0].Total, BytesWith: res[0].Stats.BytesSent,
		Without: res[1].Total, BytesWithout: res[1].Stats.BytesSent,
	}
	tab := &Table{
		Title:  "Ablation: pre-aggregation before group-by exchanges (Figure 6(c))",
		Header: []string{"variant", "time", "data shuffled"},
	}
	tab.Add("pre-aggregate", Dur(out.With), MB(out.BytesWith))
	tab.Add("raw shuffle", Dur(out.Without), MB(out.BytesWithout))
	tab.Fprint(w)
	return out, nil
}

// GroupJoinAblation compares HyPer's Γ⨝ groupjoin (used by Q18's plan)
// against the classical aggregate-then-join rewrite of the same query.
type GroupJoinAblation struct {
	SF float64
	Setup
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

// Run executes both Q18 variants and verifies they agree.
func (f GroupJoinAblation) Run(w io.Writer) (groupjoin, aggjoin time.Duration, err error) {
	if f.SF == 0 {
		f.SF = 0.05
	}
	Warmup()
	c, err := load(f.config(cluster.RDMA, true), Workload{SF: f.SF})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	run := func(q *plan.Query) (time.Duration, int, error) {
		var best time.Duration
		var rows int
		for r := 0; r < 2; r++ {
			res, stats, err := c.RunContext(context.Background(), q)
			if err != nil {
				return 0, 0, err
			}
			if r == 0 || stats.Duration < best {
				best = stats.Duration
			}
			rows = res.Rows()
		}
		return best, rows, nil
	}
	gjTime, gjRows, err := run(queries.MustBuild(18, queries.Params{SF: f.SF}))
	if err != nil {
		return 0, 0, err
	}
	ajTime, ajRows, err := run(q18AggThenJoin())
	if err != nil {
		return 0, 0, err
	}
	tab := &Table{
		Title:  "Ablation: Q18 via groupjoin (Γ⨝) vs aggregate-then-join",
		Header: []string{"plan", "time", "rows"},
	}
	tab.Add("groupjoin", Dur(gjTime), strconv.Itoa(gjRows))
	tab.Add("agg-then-join", Dur(ajTime), strconv.Itoa(ajRows))
	tab.Fprint(w)
	return gjTime, ajTime, nil
}
