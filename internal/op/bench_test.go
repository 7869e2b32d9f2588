package op

import (
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// lineitemMorsels returns lineitem at SF 0.01 and its morsels.
func lineitemMorsels() (*storage.Batch, []*storage.Batch) {
	li := tpch.Generate(0.01, 1).Tables["lineitem"]
	return li, SplitIntoMorsels([]*storage.Batch{li}, engine.DefaultMorselSize)
}

// q1Revenue is Q1's disc_price, l_extendedprice × (1 − l_discount), and
// charge, disc_price × (1 + l_tax), over lineitem's schema.
func q1Revenue(s *storage.Schema) (disc, charge Expr) {
	col := func(name string) Expr { return Col(s.MustColIndex(name)) }
	disc = MulDec(col("l_extendedprice"), SubDecConst(100, col("l_discount")))
	return disc, MulDec(disc, AddDecConst(100, col("l_tax")))
}

// BenchmarkFused runs Q1's fused stage (the shipdate filter, disc_price
// and charge, a projection) in reuse mode over lineitem at SF 0.01 and
// reports ns per input row: `go test -run '^$' -bench Fused ./internal/op`.
func BenchmarkFused(b *testing.B) {
	li, morsels := lineitemMorsels()
	col := li.Schema.MustColIndex
	disc, charge := q1Revenue(li.Schema)
	m := NewMap(li.Schema, []NamedExpr{
		{Name: "disc_price", Type: storage.TDecimal, Expr: disc},
		{Name: "charge", Type: storage.TDecimal, Expr: charge},
	})
	width := len(li.Schema.Fields)
	f := NewFused([]engine.Op{
		&Filter{Pred: I64LE(col("l_shipdate"), storage.MustDate("1998-09-02"))},
		m,
		NewProject(m.Schema, []int{col("l_returnflag"), col("l_linestatus"), col("l_quantity"), width, width + 1}),
	}, 1, true)
	w := &engine.Worker{}
	b.ReportAllocs()
	for b.Loop() {
		for _, m := range morsels {
			f.Process(w, m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(li.Rows()), "ns/row")
}

// BenchmarkGroupBy aggregates lineitem at SF 0.01 the way Q1 does (two
// string keys, four groups, sums and averages whose arguments include
// disc_price and charge, a count) and reports ns per input row:
// `go test -run '^$' -bench GroupBy ./internal/op`.
func BenchmarkGroupBy(b *testing.B) {
	li, morsels := lineitemMorsels()
	col := func(name string) Expr { return Col(li.Schema.MustColIndex(name)) }
	dec := func(k AggKind, name string, arg Expr) AggSpec {
		return AggSpec{Kind: k, Name: name, Arg: arg, ArgType: storage.TDecimal}
	}
	disc, charge := q1Revenue(li.Schema)
	aggs := []AggSpec{
		dec(Sum, "sum_qty", col("l_quantity")),
		dec(Sum, "sum_base_price", col("l_extendedprice")),
		dec(Sum, "sum_disc_price", disc),
		dec(Sum, "sum_charge", charge),
		dec(Avg, "avg_qty", col("l_quantity")),
		dec(Avg, "avg_price", col("l_extendedprice")),
		dec(Avg, "avg_disc", col("l_discount")),
		{Kind: Count, Name: "count_order"},
	}
	keys := []int{li.Schema.MustColIndex("l_returnflag"), li.Schema.MustColIndex("l_linestatus")}
	w := &engine.Worker{}
	b.ReportAllocs()
	for b.Loop() {
		g := NewGroupBy(li.Schema, keys, aggs, 1)
		for _, m := range morsels {
			g.Consume(w, m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(li.Rows()), "ns/row")
}

// BenchmarkGroupByStringKey groups lineitem at SF 0.01 by l_comment
// (about 60 000 string keys, a count only) and reports ns per input row:
// `go test -run '^$' -bench GroupByStringKey ./internal/op`. It is the
// case where the per-group stored hashes matter: growing the table and
// comparing a candidate's key cost a string hash or compare without them.
func BenchmarkGroupByStringKey(b *testing.B) {
	li, morsels := lineitemMorsels()
	keys := []int{li.Schema.MustColIndex("l_comment")}
	aggs := []AggSpec{{Kind: Count, Name: "n"}}
	w := &engine.Worker{}
	b.ReportAllocs()
	for b.Loop() {
		g := NewGroupBy(li.Schema, keys, aggs, 1)
		for _, m := range morsels {
			g.Consume(w, m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(li.Rows()), "ns/row")
}

// BenchmarkJoinProbe probes an orders table with lineitem at SF 0.01 the
// way the benchmark's op probe does (inner, fresh output, one probe and
// one build column) and reports ns per probe row:
// `go test -run '^$' -bench JoinProbe ./internal/op`.
func BenchmarkJoinProbe(b *testing.B) {
	db := tpch.Generate(0.01, 1)
	li, ord := db.Tables["lineitem"], db.Tables["orders"]
	w := &engine.Worker{}
	jb := NewJoinBuild(ord.Schema, []int{ord.Schema.MustColIndex("o_orderkey")})
	for _, m := range SplitIntoMorsels([]*storage.Batch{ord}, engine.DefaultMorselSize) {
		jb.Consume(w, m)
	}
	if err := jb.Finalize(); err != nil {
		b.Fatal(err)
	}
	probe := NewJoinProbe(jb, Inner, li.Schema, []int{li.Schema.MustColIndex("l_orderkey")},
		[]int{li.Schema.MustColIndex("l_extendedprice")}, []int{ord.Schema.MustColIndex("o_custkey")}, nil)
	morsels := SplitIntoMorsels([]*storage.Batch{li}, engine.DefaultMorselSize)
	b.ReportAllocs()
	for b.Loop() {
		for _, m := range morsels {
			probe.Process(w, m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(li.Rows()), "ns/row")
}
