//go:build !race

package op

import (
	"fmt"
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// keyedBatch has an int and a string key (n distinct pairs) and a value.
func keyedBatch(n int) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "s", Type: storage.TString},
		storage.Field{Name: "v", Type: storage.TDecimal},
	), n)
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i), fmt.Sprint("key", i%13), int64(i))
	}
	return b
}

// sumCount's MulDec argument needs worker scratch for its operands.
var sumCount = []AggSpec{
	{Kind: Sum, Name: "sum", Arg: Col(2), ArgType: storage.TDecimal},
	{Kind: Count, Name: "n"},
	{Kind: Sum, Name: "rev", Arg: MulDec(Col(2), SubDecConst(100, Col(0))), ArgType: storage.TDecimal},
}

// TestGroupByAllocs: rows that fall into existing groups allocate nothing
// (no per-row hash or key copy), and new groups cost the amortized growth
// of the table's flat arrays, not a slice each.
func TestGroupByAllocs(t *testing.T) {
	const n = 4096
	b := keyedBatch(n)
	w := &engine.Worker{}
	warm := NewGroupBy(b.Schema, []int{0, 1}, sumCount, 1)
	warm.Consume(w, b)
	if got := testing.AllocsPerRun(10, func() { warm.Consume(w, b) }); got != 0 {
		t.Errorf("GroupBy.Consume of %d rows into existing groups allocates %v times, want 0", n, got)
	}
	if got := testing.AllocsPerRun(5, func() {
		NewGroupBy(b.Schema, []int{0, 1}, sumCount, 1).Consume(w, b)
	}); got > n/16 {
		t.Errorf("GroupBy.Consume creating %d groups allocates %v times: that is per group", n, got)
	}
	merged := testing.AllocsPerRun(5, func() {
		g := NewGroupBy(b.Schema, []int{0, 1}, sumCount, 1)
		g.Consume(w, b)
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
	})
	if merged > n/16 {
		t.Errorf("GroupBy.Consume + Finalize over %d groups allocates %v times: that is per group", n, merged)
	}
}

// TestSliceBatchAllocs: a morsel window is its batch, its column-pointer
// slice and one slab of column headers, however many columns it has.
func TestSliceBatchAllocs(t *testing.T) {
	b := keyedBatch(1024)
	if got := testing.AllocsPerRun(20, func() { sliceBatch(b, 100, 600) }); got > 3 {
		t.Errorf("sliceBatch of %d columns allocates %v times, want 3", len(b.Cols), got)
	}
}

// TestJoinAllocs: building allocates per column and per index array, not
// per row; a GroupJoin probe folds rows into existing state for free; a
// join probe allocates its output batch and nothing per probe row.
func TestJoinAllocs(t *testing.T) {
	const n = 4096
	b := keyedBatch(n)
	w := &engine.Worker{}
	if got := testing.AllocsPerRun(5, func() {
		jb := NewJoinBuild(b.Schema, []int{0})
		jb.Consume(w, b)
		if err := jb.Finalize(); err != nil {
			t.Fatal(err)
		}
	}); got > 32 {
		t.Errorf("JoinBuild of %d rows allocates %v times, want a constant", n, got)
	}

	gj := NewGroupJoinBuild(b.Schema, []int{0}, sumCount)
	gj.Consume(w, b)
	if err := gj.Finalize(); err != nil {
		t.Fatal(err)
	}
	probe := &GroupJoinProbe{Build: gj, ProbeKeys: []int{0}}
	probe.Consume(w, b)
	if got := testing.AllocsPerRun(10, func() { probe.Consume(w, b) }); got != 0 {
		t.Errorf("GroupJoinProbe.Consume of %d rows allocates %v times, want 0", n, got)
	}

	jb := NewJoinBuild(b.Schema, []int{0})
	jb.Consume(w, b)
	if err := jb.Finalize(); err != nil {
		t.Fatal(err)
	}
	jp := NewJoinProbe(jb, Inner, b.Schema, []int{0}, []int{0, 2}, []int{1}, nil)
	jp.Process(w, b)
	outBatch := testing.AllocsPerRun(10, func() { storage.NewBatch(jp.Schema, n) })
	if got := testing.AllocsPerRun(10, func() { jp.Process(w, b) }); got > outBatch {
		t.Errorf("JoinProbe.Process of %d rows allocates %v times, its output batch alone %v", n, got, outBatch)
	}
}

// pooledWorker is a worker sharing a one-worker engine's column pool.
func pooledWorker(t *testing.T) *engine.Worker {
	t.Helper()
	e, err := engine.New(engine.Config{Topology: numa.TwoSocket(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e.NewWorker(0)
}

// TestJoinProbeReuseAllocs: a warm reused probe writes into its slot's
// pooled columns, and so does one whose columns went back to the pool in
// between — no allocation per Process either way, with or without a
// residual, whose candidate batch is the slot's too.
func TestJoinProbeReuseAllocs(t *testing.T) {
	const n = 4096
	b := keyedBatch(n)
	w := pooledWorker(t)
	jb := NewJoinBuild(b.Schema, []int{0})
	jb.Consume(w, b)
	if err := jb.Finalize(); err != nil {
		t.Fatal(err)
	}
	// probe v ≥ 100 and a build string with prefix "key1".
	residual := &Residual{
		Pred: And(I64GE(0, 100), StrPrefix(1, "key1")),
		Cols: []ResidualCol{{Col: 2}, {Build: true, Col: 1}},
	}
	for _, res := range []*Residual{nil, residual} {
		jp := NewJoinProbe(jb, Inner, b.Schema, []int{0}, []int{0, 2}, []int{1}, res)
		jp.ReuseOutput(1)
		if out := jp.Process(w, b); res != nil && (out == nil || out.Rows() == n) {
			t.Fatal("the residual selects no row or every row: the pin checks no narrowing")
		}
		if got := testing.AllocsPerRun(10, func() { jp.Process(w, b) }); got != 0 {
			t.Errorf("reused JoinProbe.Process (residual=%v) of %d rows allocates %v times, want 0", res != nil, n, got)
		}
		jp.Release(w)
		if got := testing.AllocsPerRun(10, func() { jp.Process(w, b) }); got != 0 {
			t.Errorf("JoinProbe.Process (residual=%v) after Release allocates %v times, want 0", res != nil, got)
		}
		if got := jp.BatchAllocs(); got != 1 {
			t.Errorf("reused probe (residual=%v) reports %d batch allocations, want 1 (its slot)", res != nil, got)
		}
	}
}

// TestFusedReuseAllocs: after one Release → take cycle a reuse-mode fused
// stage allocates nothing, on the compacting path (an And filter drops
// rows) and on the zero-copy one (every row survives), also where a nested
// expression (revenue's 100 − v) takes worker scratch.
func TestFusedReuseAllocs(t *testing.T) {
	const n = 4096
	b := keyedBatch(n)
	w := pooledWorker(t)
	revenue := NewMap(b.Schema, []NamedExpr{
		{Name: "r", Type: storage.TDecimal, Expr: MulDec(Col(2), Col(0))},
		{Name: "rev", Type: storage.TDecimal, Expr: MulDec(Col(2), SubDecConst(100, Col(0)))},
	})
	stages := map[string]*FusedStage{
		"compacting": NewFused([]engine.Op{&Filter{Pred: And(I64GE(0, 1), I64LT(0, n/3))}, revenue, NewProject(revenue.Schema, []int{1, 3, 4})}, 1, true),
		"zero-copy":  NewFused([]engine.Op{revenue}, 1, true),
	}
	for name, f := range stages {
		f.Process(w, b)
		f.Release(w)
		if got := testing.AllocsPerRun(10, func() { f.Process(w, b) }); got != 0 {
			t.Errorf("%s fused stage allocates %v times per Process after a Release, want 0", name, got)
		}
	}
}
