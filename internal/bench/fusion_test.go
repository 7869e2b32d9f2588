package bench

import (
	"context"
	"fmt"
	"testing"

	"hsqp/internal/cluster"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/storage"
)

// TestPushdownWireReduction pins the wire-byte win of pushing projections
// below exchange sends: a shuffle join whose probe relation drags a wide
// pad column it never outputs must ship at least 20% fewer bytes with
// pruning enabled. Both runs share one loaded cluster; byte counts come
// from the query's own exchange sends (QueryStats.WireBytes), so they are
// exact and deterministic. (Result identity under NoPushdown is the
// ablation matrix in internal/queries.)
func TestPushdownWireReduction(t *testing.T) {
	build, probe := buildSkewTables(60_000, 6_000, 0) // uniform keys: pure pushdown, no skew handling
	c, err := cluster.New(Setup{TimeScale: 0.005}.config(cluster.TCPGbE, true))
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	c.LoadTable("skew_build", build, storage.PlacementChunked, 0)
	c.LoadTable("skew_probe", probe, storage.PlacementChunked, 0)
	run := func(po plan.Options) (rows int, wire uint64) {
		res, stats, err := c.RunContext(context.Background(), skewQuery(plan.PartitionBoth), cluster.WithPlan(po))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows(), stats.WireBytes()
	}
	rowsOn, wireOn := run(plan.Options{})
	rowsOff, wireOff := run(plan.Options{NoPushdown: true})
	if rowsOn != rowsOff || rowsOn == 0 {
		t.Fatalf("result drift: %d rows with pushdown, %d without", rowsOn, rowsOff)
	}
	if wireOn == 0 || wireOff == 0 {
		t.Fatalf("missing wire-byte accounting: %d with pushdown, %d without", wireOn, wireOff)
	}
	t.Logf("wire bytes: %d with pushdown, %d without (%.1f%% reduction)",
		wireOn, wireOff, 100*(1-float64(wireOn)/float64(wireOff)))
	if float64(wireOn) > 0.8*float64(wireOff) {
		t.Fatalf("pushdown saved <20%%: %d vs %d bytes", wireOn, wireOff)
	}
}

// TestPushdownPrunesResidualJoin: a join with a residual is pruned below
// its exchange like any other. Q19's part broadcast keeps p_partkey and
// the three columns its residual reads, so the query ships at most half
// the bytes it ships without pushdown, and both runs return the rows of
// internal/ref. Q19 also selects part on the OR of its branches' part-only
// conjuncts before the broadcast, which keeps 9 of 2 000 parts at SF 0.01:
// the query ships about 1.6 KB, where broadcasting every part's four
// columns shipped 238 218 bytes.
func TestPushdownPrunesResidualJoin(t *testing.T) {
	const sf = 0.01
	db := DB(sf, 42)
	want, err := ref.Run(19, db, sf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(Setup{TimeScale: 0.005}.config(cluster.TCPGbE, true))
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	c.LoadTPCH(db, false)
	run := func(po plan.Options) (*storage.Batch, uint64) {
		res, stats, err := c.RunContext(context.Background(), queries.MustBuild(19, queries.Params{SF: sf}), cluster.WithPlan(po))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Compare(19, res, want); err != nil {
			t.Fatalf("pushdown=%v: %v", !po.NoPushdown, err)
		}
		return res, stats.WireBytes()
	}
	on, wireOn := run(plan.Options{})
	off, wireOff := run(plan.Options{NoPushdown: true})
	if fmt.Sprint(on.Row(0)) != fmt.Sprint(off.Row(0)) {
		t.Fatalf("result drift: %v with pushdown, %v without", on.Row(0), off.Row(0))
	}
	t.Logf("wire bytes: %d with pushdown, %d without", wireOn, wireOff)
	if wireOn == 0 || 2*wireOn > wireOff {
		t.Fatalf("pushdown ships %d bytes, without it %d: want at most half", wireOn, wireOff)
	}
	if wireOn > 10_000 {
		t.Fatalf("pushdown ships %d bytes: the part pre-filter should leave a few hundred bytes per server", wireOn)
	}
}

// TestResidualRemapsUnderPushdown: pruning a shuffled probe side moves the
// column a residual reads (p_drop goes, p_val shifts left), and the
// residual still reads it: the pruned and the unpruned plan return the
// rows a direct count gives.
func TestResidualRemapsUnderPushdown(t *testing.T) {
	probe := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "p_key", Type: storage.TInt64},
		storage.Field{Name: "p_drop", Type: storage.TString},
		storage.Field{Name: "p_val", Type: storage.TInt64},
	), 3000)
	build := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "b_key", Type: storage.TInt64},
		storage.Field{Name: "b_val", Type: storage.TInt64},
	), 100)
	for k := range 100 {
		build.AppendRow(int64(k), int64(k%10))
	}
	wantRows := 0
	for i := range 3000 {
		probe.AppendRow(int64(i%100), "padding", int64(i%13))
		if i%13 > i%100%10 {
			wantRows++
		}
	}
	c, err := cluster.New(Setup{TimeScale: 0.005}.config(cluster.TCPGbE, true))
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	c.LoadTable("res_probe", probe, storage.PlacementChunked, 0)
	c.LoadTable("res_build", build, storage.PlacementChunked, 0)
	p, b := plan.Scan("res_probe", probe.Schema), plan.Scan("res_build", build.Schema)
	on := plan.On(p, b)
	j := p.Join(b, []string{"p_key"}, []string{"b_key"}, plan.JoinSpec{
		Type: op.Semi, Strategy: plan.PartitionBoth, ProbeOut: []string{"p_key"},
		Residual: on.Where(op.LT(op.Col(on.Build("b_val")), op.Col(on.Probe("p_val")))),
	})
	q := plan.NewQuery("residual-remap", j)
	for _, po := range []plan.Options{{}, {NoPushdown: true}} {
		res, _, err := c.RunContext(context.Background(), q, cluster.WithPlan(po))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows() != wantRows {
			t.Fatalf("pushdown=%v: %d rows, want %d", !po.NoPushdown, res.Rows(), wantRows)
		}
	}
}
