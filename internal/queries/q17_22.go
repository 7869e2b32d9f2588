package queries

import (
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// q17: small-quantity-order revenue — the paper's Figure 6 example. The
// correlated avg(l_quantity) subquery becomes a groupjoin of part and
// lineitem; a second lineitem pass keeps rows below 0.2×avg.
func q17(Params) *plan.Query {
	part := scan("part")
	part = part.Select(op.And(
		op.StrEQ(part.Col("p_brand"), "Brand#23"),
		op.StrEQ(part.Col("p_container"), "MED BOX"),
	))
	part = part.Project("p_partkey")

	l := scan("lineitem")
	l = l.Project("l_partkey", "l_quantity")
	gj := l.GroupJoin(part, []string{"l_partkey"}, []string{"p_partkey"},
		avgDec("avg_qty", col(l, "l_quantity")))
	// gj: (p_partkey, avg_qty), one row per matched part.

	l2 := scan("lineitem")
	l2 = l2.Project("l_partkey", "l_quantity", "l_extendedprice")
	// l_quantity < 0.2 × avg(qty)  ⇔  l_quantity × 5.00 < avg
	on := plan.On(l2, gj)
	j := l2.Join(gj, []string{"l_partkey"}, []string{"p_partkey"},
		plan.JoinSpec{
			Type:     op.Inner,
			Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"l_extendedprice"},
			BuildOut: []string{},
			Residual: on.Where(op.LT(op.MulDec(op.Col(on.Probe("l_quantity")), op.ConstI(500)),
				op.Col(on.Build("avg_qty")))),
		})
	g := j.GroupByCols(nil, sumDec("sum_price", col(j, "l_extendedprice")))
	g = g.Map(op.NamedExpr{Name: "avg_yearly", Type: storage.TDecimal,
		Expr: op.DivDecConst(col(g, "sum_price"), 7)})
	g = g.Project("avg_yearly")
	return plan.NewQuery("q17", g)
}

// q18: large volume customers — groupjoin of orders and lineitem, HAVING
// sum(l_quantity) > 300.
func q18(Params) *plan.Query {
	o := scan("orders")
	o = o.ProjectCols([]int{
		o.Col("o_orderkey"), o.Col("o_custkey"), o.Col("o_totalprice"), o.Col("o_orderdate"),
	})
	l := scan("lineitem")
	l = l.Project("l_orderkey", "l_quantity")
	gj := l.GroupJoin(o, []string{"l_orderkey"}, []string{"o_orderkey"},
		sumDec("sum_qty", col(l, "l_quantity")))
	big := gj.Select(op.I64GT(gj.Col("sum_qty"), 300*100))

	cust := scan("customer")
	f := big.Join(cust, []string{"o_custkey"}, []string{"c_custkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"o_orderkey", "o_totalprice", "o_orderdate", "sum_qty"},
			BuildOut: []string{"c_name", "c_custkey"}})
	f = f.Project("c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty")
	f = f.OrderBy([]op.SortKey{desc(f, "o_totalprice"), asc(f, "o_orderdate")}, 100)
	return plan.NewQuery("q18", f)
}

// q19: discounted revenue — disjunctive join predicate spanning both
// sides, evaluated as a residual of the partkey join.
func q19(Params) *plan.Query {
	l := scan("lineitem")
	l = l.Select(op.And(
		op.StrIn(l.Col("l_shipmode"), "AIR", "AIR REG"),
		op.StrEQ(l.Col("l_shipinstruct"), "DELIVER IN PERSON"),
	))
	l = l.Project("l_partkey", "l_quantity", "l_extendedprice", "l_discount")
	part := scan("part")

	on := plan.On(l, part)
	qty, brand := on.Probe("l_quantity"), on.Build("p_brand")
	container, size := on.Build("p_container"), on.Build("p_size")
	branch := func(wantBrand string, containers []string, qlo, qhi, smax int64) op.Pred {
		return op.And(
			op.StrEQ(brand, wantBrand),
			op.StrIn(container, containers...),
			op.I64Between(qty, qlo*100, qhi*100),
			op.I64Between(size, 1, smax),
		)
	}
	j := l.Join(part, []string{"l_partkey"}, []string{"p_partkey"},
		plan.JoinSpec{
			Type:     op.Inner,
			Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"l_extendedprice", "l_discount"},
			BuildOut: []string{},
			Residual: on.Where(op.Or(
				branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
				branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
				branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
			)),
		})
	j = j.Map(op.NamedExpr{Name: "rev", Type: storage.TDecimal, Expr: revenue(j)})
	g := j.GroupByCols(nil, sumDec("revenue", col(j, "rev")))
	return plan.NewQuery("q19", g)
}

// q20: potential part promotion — nested semi-joins with a quantity
// threshold.
func q20(Params) *plan.Query {
	part := scan("part")
	part = part.Select(op.StrPrefix(part.Col("p_name"), "forest"))
	part = part.Project("p_partkey")

	l := scan("lineitem")
	l = l.Select(op.And(
		op.I64GE(l.Col("l_shipdate"), date("1994-01-01")),
		op.I64LT(l.Col("l_shipdate"), date("1995-01-01")),
	))
	l = l.Project("l_partkey", "l_suppkey", "l_quantity")
	qtyPerPS := l.GroupBy([]string{"l_partkey", "l_suppkey"},
		sumDec("sum_qty", col(l, "l_quantity")))

	ps := scan("partsupp")
	ps = ps.Join(part, []string{"ps_partkey"}, []string{"p_partkey"},
		plan.JoinSpec{Type: op.Semi, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"ps_partkey", "ps_suppkey", "ps_availqty"}})
	// ps_availqty > 0.5 × sum(l_quantity); availqty is a plain integer,
	// sum_qty decimal hundredths: sum_qty < availqty × 200.00.
	on := plan.On(ps, qtyPerPS)
	candidates := ps.Join(qtyPerPS,
		[]string{"ps_partkey", "ps_suppkey"}, []string{"l_partkey", "l_suppkey"},
		plan.JoinSpec{
			Type: op.Semi,
			Residual: on.Where(op.LT(op.Col(on.Build("sum_qty")),
				op.MulDec(op.Col(on.Probe("ps_availqty")), op.ConstI(20000)))),
		})
	candidates = candidates.Project("ps_suppkey")

	nat := scan("nation")
	nat = nat.Select(op.StrEQ(nat.Col("n_name"), "CANADA"))
	sup := scan("supplier")
	sup = sup.Join(nat, []string{"s_nationkey"}, []string{"n_nationkey"},
		plan.JoinSpec{Type: op.Semi, ProbeOut: []string{"s_suppkey", "s_name", "s_address"}})
	f := sup.Join(candidates, []string{"s_suppkey"}, []string{"ps_suppkey"},
		plan.JoinSpec{Type: op.Semi})
	f = f.Project("s_name", "s_address")
	f = f.OrderBy([]op.SortKey{asc(f, "s_name")}, 0)
	return plan.NewQuery("q20", f)
}

// q21: suppliers who kept orders waiting — semi- and anti-joins with
// inequality residuals over lineitem.
func q21(Params) *plan.Query {
	nat := scan("nation")
	nat = nat.Select(op.StrEQ(nat.Col("n_name"), "SAUDI ARABIA"))
	sup := scan("supplier")
	sup = sup.Join(nat, []string{"s_nationkey"}, []string{"n_nationkey"},
		plan.JoinSpec{Type: op.Semi, ProbeOut: []string{"s_suppkey", "s_name"}})

	l1 := scan("lineitem")
	l1 = l1.Select(op.ColLT(l1.Col("l_commitdate"), l1.Col("l_receiptdate")))
	l1 = l1.Project("l_orderkey", "l_suppkey")
	j := l1.Join(sup, []string{"l_suppkey"}, []string{"s_suppkey"},
		plan.JoinSpec{Type: op.Inner, Strategy: plan.BroadcastBuild,
			ProbeOut: []string{"l_orderkey", "l_suppkey"},
			BuildOut: []string{"s_name"}})

	o := scan("orders")
	o = o.Select(op.StrEQ(o.Col("o_orderstatus"), "F"))
	o = o.Project("o_orderkey")
	j = j.Join(o, []string{"l_orderkey"}, []string{"o_orderkey"},
		plan.JoinSpec{Type: op.Semi})

	// exists l2: same order, different supplier.
	l2 := scan("lineitem")
	l2 = l2.Project("l_orderkey", "l_suppkey")
	on2 := plan.On(j, l2)
	j = j.Join(l2, []string{"l_orderkey"}, []string{"l_orderkey"},
		plan.JoinSpec{
			Type:     op.Semi,
			Residual: on2.Where(op.NE(op.Col(on2.Build("l_suppkey")), op.Col(on2.Probe("l_suppkey")))),
		})

	// not exists l3: same order, different supplier, also late.
	l3 := scan("lineitem")
	l3 = l3.Select(op.ColLT(l3.Col("l_commitdate"), l3.Col("l_receiptdate")))
	l3 = l3.Project("l_orderkey", "l_suppkey")
	on3 := plan.On(j, l3)
	j = j.Join(l3, []string{"l_orderkey"}, []string{"l_orderkey"},
		plan.JoinSpec{
			Type:     op.Anti,
			Residual: on3.Where(op.NE(op.Col(on3.Build("l_suppkey")), op.Col(on3.Probe("l_suppkey")))),
		})

	g := j.GroupBy([]string{"s_name"}, count("numwait"))
	g = g.OrderBy([]op.SortKey{desc(g, "numwait"), asc(g, "s_name")}, 100)
	return plan.NewQuery("q21", g)
}

// q22: global sales opportunity — scalar average + anti-join against
// orders.
func q22(Params) *plan.Query {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	c := scan("customer")
	c = c.Project("c_custkey", "c_phone", "c_acctbal")
	cf := c.Select(op.StrPrefixIn(c.Col("c_phone"), 2, codes...))

	withBal := cf.Select(op.I64GT(cf.Col("c_acctbal"), 0))
	avgBal := withBal.GroupByCols(nil, avgDec("avg_bal", col(withBal, "c_acctbal")))

	on := plan.On(cf, avgBal)
	rich := cf.Join(avgBal, nil, nil, plan.JoinSpec{
		Type:     op.Semi,
		Residual: on.Where(op.LT(op.Col(on.Build("avg_bal")), op.Col(on.Probe("c_acctbal")))),
	})
	o := scan("orders")
	o = o.Project("o_custkey")
	noOrders := rich.Join(o, []string{"c_custkey"}, []string{"o_custkey"},
		plan.JoinSpec{Type: op.Anti})
	noOrders = noOrders.Map(op.NamedExpr{Name: "cntrycode", Type: storage.TString,
		Expr: op.Substr(noOrders.Col("c_phone"), 0, 2)})
	g := noOrders.GroupBy([]string{"cntrycode"},
		count("numcust"),
		sumDec("totacctbal", col(noOrders, "c_acctbal")))
	g = g.OrderBy([]op.SortKey{asc(g, "cntrycode")}, 0)
	return plan.NewQuery("q22", g)
}
