package competitors

import (
	"context"
	"testing"

	"hsqp/internal/cluster"
	"hsqp/internal/engine"
	"hsqp/internal/numa"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

func sample() *storage.Batch {
	db := tpch.Generate(0.002, 42)
	return db.Tables["orders"]
}

func TestBoxedIteratorPreservesData(t *testing.T) {
	b := sample()
	bi := NewBoxedIterator(b.Schema, 5)
	w := &engine.Worker{ID: 0, Node: 0}
	out := bi.Process(w, b)
	if out.Rows() != b.Rows() {
		t.Fatalf("rows %d != %d", out.Rows(), b.Rows())
	}
	for i := 0; i < min(out.Rows(), 200); i++ {
		for c := range b.Cols {
			if out.Cols[c].Value(i) != b.Cols[c].Value(i) {
				t.Fatalf("row %d col %d changed", i, c)
			}
		}
	}
}

func TestScanDeserializerPreservesData(t *testing.T) {
	b := sample()
	sd := NewScanDeserializer(b.Schema)
	out := sd.Process(&engine.Worker{}, b)
	if out.Rows() != b.Rows() {
		t.Fatalf("rows %d != %d", out.Rows(), b.Rows())
	}
	for i := 0; i < min(out.Rows(), 200); i++ {
		for c := range b.Cols {
			if out.Cols[c].Value(i) != b.Cols[c].Value(i) {
				t.Fatalf("row %d col %d changed", i, c)
			}
		}
	}
}

func TestStyleConfigs(t *testing.T) {
	for _, s := range append(Styles(), HyPerTCPStyle) {
		cfg, po := ClusterConfig(s, 2, 2, 0.001)
		if cfg.Servers != 2 {
			t.Fatalf("%v: servers", s)
		}
		if s == HyPerStyle && (cfg.Transport != cluster.RDMA || !cfg.Scheduling) {
			t.Fatalf("HyPer style must be RDMA+scheduled: %+v", cfg)
		}
		if s != HyPerStyle && cfg.Transport == cluster.RDMA {
			t.Fatalf("%v must not use RDMA", s)
		}
		if s == VectorwiseStyle && !po.Classic {
			t.Fatal("Vectorwise style must use classic exchange operators")
		}
		if (s == SparkSQLStyle || s == ImpalaStyle || s == MemSQLStyle) && po.AfterScan == nil {
			t.Fatalf("%v must add scan overhead", s)
		}
	}
	if !MemSQLStyle.Partitioned() || !VectorwiseStyle.Partitioned() || SparkSQLStyle.Partitioned() {
		t.Fatal("placement flags wrong")
	}
}

// TestStylesStillCorrect runs a real distributed query under the overhead
// operators and checks the result is unchanged: competitor styles must
// slow execution down, never alter semantics.
func TestStylesStillCorrect(t *testing.T) {
	db := tpch.Generate(0.002, 42)
	var want int64
	ref := db.Tables["lineitem"]
	qty := ref.Schema.MustColIndex("l_quantity")
	for i := 0; i < ref.Rows(); i++ {
		want += ref.Cols[qty].I64[i]
	}
	for _, s := range []Style{SparkSQLStyle, ImpalaStyle, HyPerStyle} {
		cfg, po := ClusterConfig(s, 2, 2, 0.001)
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.LoadTPCH(db, s.Partitioned())
		q := sumQuantityQuery()
		res, _, err := c.RunContext(context.Background(), q, cluster.WithPlan(po))
		if err != nil {
			c.Close()
			t.Fatalf("%v: %v", s, err)
		}
		if res.Rows() != 1 || res.Cols[0].I64[0] != want {
			t.Fatalf("%v: sum %v, want %d", s, res.Row(0), want)
		}
		c.Close()
	}
}

func TestNodeInterleavedConstant(t *testing.T) {
	if numa.NodeInterleaved >= 0 {
		t.Fatal("interleaved marker must be negative")
	}
}

// sumQuantityQuery builds a trivial scalar aggregation over lineitem.
func sumQuantityQuery() *plan.Query {
	l := plan.Scan("lineitem", tpch.LineitemSchema())
	g := l.GroupByCols(nil, op.AggSpec{
		Kind: op.Sum, Name: "s",
		Arg:     op.Col(l.Col("l_quantity")),
		ArgType: storage.TDecimal,
	})
	return plan.NewQuery("sumqty", g)
}
