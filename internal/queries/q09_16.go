package queries

import (
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// q9: product type profit measure, grouped by nation and year.
func q9(Params) *plan.Query {
	part := scan("part")
	part = part.Select(op.StrContains(part.Col("p_name"), "green"))
	part = part.Project("p_partkey")

	l := scan("lineitem")
	lp := l.Join(part, []string{"l_partkey"}, []string{"p_partkey"},
		plan.JoinSpec{Type: op.Semi, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"}})

	sup := nationOf(scan("supplier"), "s_nationkey", []string{"s_suppkey"})
	lps := lp.Join(sup, []string{"l_suppkey"}, []string{"s_suppkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"},
			BuildOut: []string{"n_name"}})

	ps := scan("partsupp")
	ps = ps.Project("ps_partkey", "ps_suppkey", "ps_supplycost")
	j := lps.Join(ps, []string{"l_partkey", "l_suppkey"}, []string{"ps_partkey", "ps_suppkey"},
		plan.JoinSpec{Type: op.Inner,
			ProbeOut: []string{"l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "n_name"},
			BuildOut: []string{"ps_supplycost"}})

	o := scan("orders")
	o = o.Project("o_orderkey", "o_orderdate")
	j2 := j.Join(o, []string{"l_orderkey"}, []string{"o_orderkey"},
		plan.JoinSpec{Type: op.Inner,
			ProbeOut: []string{"l_quantity", "l_extendedprice", "l_discount", "n_name", "ps_supplycost"},
			BuildOut: []string{"o_orderdate"}})
	j2 = j2.Map(
		op.NamedExpr{Name: "o_year", Type: storage.TInt64, Expr: op.Year(j2.Col("o_orderdate"))},
		op.NamedExpr{Name: "amount", Type: storage.TDecimal,
			Expr: op.SubDec(revenue(j2), op.MulDec(col(j2, "ps_supplycost"), col(j2, "l_quantity")))},
	)
	g := j2.GroupBy([]string{"n_name", "o_year"}, sumDec("sum_profit", col(j2, "amount")))
	g = g.OrderBy([]op.SortKey{asc(g, "n_name"), desc(g, "o_year")}, 0)
	return plan.NewQuery("q9", g)
}

// q10: returned item reporting — top 20 customers by lost revenue.
func q10(Params) *plan.Query {
	o := scan("orders")
	o = o.Select(op.And(
		op.I64GE(o.Col("o_orderdate"), date("1993-10-01")),
		op.I64LT(o.Col("o_orderdate"), date("1994-01-01")),
	))
	o = o.Project("o_orderkey", "o_custkey")
	l := scan("lineitem")
	l = l.Select(op.StrEQ(l.Col("l_returnflag"), "R"))
	l = l.Project("l_orderkey", "l_extendedprice", "l_discount")
	j := l.Join(o, []string{"l_orderkey"}, []string{"o_orderkey"},
		plan.JoinSpec{Type: op.Inner,
			ProbeOut: []string{"l_extendedprice", "l_discount"},
			BuildOut: []string{"o_custkey"}})
	j = j.Map(op.NamedExpr{Name: "rev", Type: storage.TDecimal, Expr: revenue(j)})
	g := j.GroupBy([]string{"o_custkey"}, sumDec("revenue", col(j, "rev")))

	cust := nationOf(scan("customer"), "c_nationkey",
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment"})
	f := g.Join(cust, []string{"o_custkey"}, []string{"c_custkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"revenue"},
			BuildOut: []string{"c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment", "n_name"}})
	f = f.Project("c_custkey", "c_name", "revenue", "c_acctbal", "n_name", "c_address", "c_phone", "c_comment")
	f = f.OrderBy([]op.SortKey{desc(f, "revenue"), asc(f, "c_custkey")}, 20)
	return plan.NewQuery("q10", f)
}

// q11: important stock identification — HAVING against a scalar subquery
// over the same join (fraction 0.0001/SF).
func q11(p Params) *plan.Query {
	frac := 0.0001
	if p.SF > 0 {
		frac = 0.0001 / p.SF
	}
	nat := scan("nation")
	nat = nat.Select(op.StrEQ(nat.Col("n_name"), "GERMANY"))
	sup := scan("supplier")
	sup = sup.Join(nat, []string{"s_nationkey"}, []string{"n_nationkey"},
		plan.JoinSpec{Type: op.Semi, ProbeOut: []string{"s_suppkey"}})
	ps := scan("partsupp")
	base := ps.Join(sup, []string{"ps_suppkey"}, []string{"s_suppkey"},
		plan.JoinSpec{Type: op.Semi, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"ps_partkey", "ps_supplycost", "ps_availqty"}})
	// availqty is an integer count: MulDec by 100.00 scales it to decimal.
	base = base.Map(op.NamedExpr{Name: "value", Type: storage.TDecimal,
		Expr: op.MulDec(col(base, "ps_supplycost"),
			op.MulDec(col(base, "ps_availqty"), op.ConstI(10000)))})

	grouped := base.GroupBy([]string{"ps_partkey"}, sumDec("value", col(base, "value")))
	total := base.GroupByCols(nil, sumDec("total", col(base, "value")))

	on := plan.On(grouped, total)
	f := grouped.Join(total, nil, nil, plan.JoinSpec{
		Type:     op.Semi,
		Residual: on.Where(op.GTFrac(op.Col(on.Probe("value")), op.Col(on.Build("total")), frac)),
	})
	f = f.OrderBy([]op.SortKey{desc(f, "value")}, 0)
	return plan.NewQuery("q11", f)
}

// q12: shipping modes and order priority.
func q12(Params) *plan.Query {
	l := scan("lineitem")
	l = l.Select(op.And(
		op.StrIn(l.Col("l_shipmode"), "MAIL", "SHIP"),
		op.ColLT(l.Col("l_commitdate"), l.Col("l_receiptdate")),
		op.ColLT(l.Col("l_shipdate"), l.Col("l_commitdate")),
		op.I64GE(l.Col("l_receiptdate"), date("1994-01-01")),
		op.I64LT(l.Col("l_receiptdate"), date("1995-01-01")),
	))
	l = l.Project("l_orderkey", "l_shipmode")
	o := scan("orders")
	o = o.Project("o_orderkey", "o_orderpriority")
	j := l.Join(o, []string{"l_orderkey"}, []string{"o_orderkey"},
		plan.JoinSpec{Type: op.Inner,
			ProbeOut: []string{"l_shipmode"},
			BuildOut: []string{"o_orderpriority"}})
	high := op.StrIn(j.Col("o_orderpriority"), "1-URGENT", "2-HIGH")
	j = j.Map(
		op.NamedExpr{Name: "high_line", Type: storage.TInt64,
			Expr: op.CaseWhen(high, op.ConstI(1), op.ConstI(0))},
		op.NamedExpr{Name: "low_line", Type: storage.TInt64,
			Expr: op.CaseWhen(high, op.ConstI(0), op.ConstI(1))},
	)
	g := j.GroupBy([]string{"l_shipmode"},
		sumInt("high_line_count", col(j, "high_line")),
		sumInt("low_line_count", col(j, "low_line")))
	g = g.OrderBy([]op.SortKey{asc(g, "l_shipmode")}, 0)
	return plan.NewQuery("q12", g)
}

// q13: customer distribution — left outer join with a filtered build side.
func q13(Params) *plan.Query {
	o := scan("orders")
	o = o.Select(op.Not(op.Like(o.Col("o_comment"), "%special%requests%")))
	o = o.Project("o_orderkey", "o_custkey")
	c := scan("customer")
	c = c.Project("c_custkey")
	j := c.Join(o, []string{"c_custkey"}, []string{"o_custkey"},
		plan.JoinSpec{Type: op.LeftOuter,
			ProbeOut: []string{"c_custkey"},
			BuildOut: []string{"o_orderkey"}})
	perCust := j.GroupBy([]string{"c_custkey"},
		countNonNull("c_count", col(j, "o_orderkey")))
	dist := perCust.GroupBy([]string{"c_count"}, count("custdist"))
	dist = dist.OrderBy([]op.SortKey{desc(dist, "custdist"), desc(dist, "c_count")}, 0)
	return plan.NewQuery("q13", dist)
}

// q14: promotion effect — conditional aggregate ratio.
func q14(Params) *plan.Query {
	l := scan("lineitem")
	l = l.Select(op.And(
		op.I64GE(l.Col("l_shipdate"), date("1995-09-01")),
		op.I64LT(l.Col("l_shipdate"), date("1995-10-01")),
	))
	l = l.Project("l_partkey", "l_extendedprice", "l_discount")
	part := scan("part")
	part = part.Project("p_partkey", "p_type")
	j := l.Join(part, []string{"l_partkey"}, []string{"p_partkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"l_extendedprice", "l_discount"},
			BuildOut: []string{"p_type"}})
	j = j.Map(op.NamedExpr{Name: "rev", Type: storage.TDecimal, Expr: revenue(j)})
	j = j.Map(op.NamedExpr{Name: "promo_rev", Type: storage.TDecimal,
		Expr: op.CaseWhen(op.StrPrefix(j.Col("p_type"), "PROMO"), col(j, "rev"), op.ConstI(0))})
	g := j.GroupByCols(nil,
		sumDec("sum_promo", col(j, "promo_rev")),
		sumDec("sum_rev", col(j, "rev")))
	g = g.Map(op.NamedExpr{Name: "promo_revenue", Type: storage.TDecimal,
		Expr: op.Ratio(col(g, "sum_promo"), col(g, "sum_rev"), 10000)})
	g = g.Project("promo_revenue")
	return plan.NewQuery("q14", g)
}

// q15: top supplier — revenue view + max scalar + value join.
func q15(Params) *plan.Query {
	l := scan("lineitem")
	l = l.Select(op.And(
		op.I64GE(l.Col("l_shipdate"), date("1996-01-01")),
		op.I64LT(l.Col("l_shipdate"), date("1996-04-01")),
	))
	l = l.Project("l_suppkey", "l_extendedprice", "l_discount")
	l = l.Map(op.NamedExpr{Name: "rev", Type: storage.TDecimal, Expr: revenue(l)})
	view := l.GroupBy([]string{"l_suppkey"}, sumDec("total_revenue", col(l, "rev")))
	maxRev := view.GroupByCols(nil, maxDec("max_revenue", col(view, "total_revenue")))

	top := view.Join(maxRev, []string{"total_revenue"}, []string{"max_revenue"},
		plan.JoinSpec{Type: op.Semi})
	sup := scan("supplier")
	f := top.Join(sup, []string{"l_suppkey"}, []string{"s_suppkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"total_revenue"},
			BuildOut: []string{"s_suppkey", "s_name", "s_address", "s_phone"}})
	f = f.Project("s_suppkey", "s_name", "s_address", "s_phone", "total_revenue")
	f = f.OrderBy([]op.SortKey{asc(f, "s_suppkey")}, 0)
	return plan.NewQuery("q15", f)
}

// q16: parts/supplier relationship — anti-join against complaint
// suppliers, count(distinct) via a two-level aggregation.
func q16(Params) *plan.Query {
	part := scan("part")
	part = part.Select(op.And(
		op.Not(op.StrEQ(part.Col("p_brand"), "Brand#45")),
		op.Not(op.StrPrefix(part.Col("p_type"), "MEDIUM POLISHED")),
		op.I64In(part.Col("p_size"), 49, 14, 23, 45, 19, 3, 36, 9),
	))
	ps := scan("partsupp")
	j := ps.Join(part, []string{"ps_partkey"}, []string{"p_partkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"ps_suppkey"},
			BuildOut: []string{"p_brand", "p_type", "p_size"}})
	bad := scan("supplier")
	bad = bad.Select(op.Like(bad.Col("s_comment"), "%Customer%Complaints%"))
	bad = bad.Project("s_suppkey")
	j = j.Join(bad, []string{"ps_suppkey"}, []string{"s_suppkey"},
		plan.JoinSpec{Type: op.Anti, Strategy: plan.BroadcastBuild})
	// count(distinct ps_suppkey): first collapse duplicates, then count.
	uniq := j.GroupBy([]string{"p_brand", "p_type", "p_size", "ps_suppkey"})
	g := uniq.GroupBy([]string{"p_brand", "p_type", "p_size"}, count("supplier_cnt"))
	g = g.OrderBy([]op.SortKey{
		desc(g, "supplier_cnt"), asc(g, "p_brand"), asc(g, "p_type"), asc(g, "p_size"),
	}, 0)
	return plan.NewQuery("q16", g)
}
