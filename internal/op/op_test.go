package op

import (
	"fmt"
	"testing"
	"testing/quick"

	"hsqp/internal/engine"
	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

func testEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Topology: numa.TwoSocket(), Workers: workers, MorselSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func intBatch(n int) *storage.Batch {
	s := storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "v", Type: storage.TInt64},
	)
	b := storage.NewBatch(s, n)
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i), int64(i%10))
	}
	return b
}

func tableOf(b *storage.Batch, topo *numa.Topology) *storage.Table {
	t := storage.NewTable("t", b.Schema)
	t.DistributeToSockets(b, topo)
	return t
}

func TestFilterKeepsMatching(t *testing.T) {
	f := &Filter{Pred: I64LT(0, 10)}
	b := intBatch(100)
	out := f.Process(nil, b)
	if out.Rows() != 10 {
		t.Fatalf("filtered to %d rows, want 10", out.Rows())
	}
	// All-pass copies no rows: the output shares every input column.
	all := &Filter{Pred: I64GE(0, 0)}
	got := all.Process(nil, b)
	if got.Rows() != b.Rows() || len(got.Cols) != len(b.Cols) {
		t.Fatalf("all-pass filter returned %d rows × %d columns, want %d × %d", got.Rows(), len(got.Cols), b.Rows(), len(b.Cols))
	}
	for i, c := range got.Cols {
		if c != b.Cols[i] {
			t.Fatalf("all-pass filter copied column %d", i)
		}
	}
	// None-pass returns nil.
	none := &Filter{Pred: I64LT(0, 0)}
	if got := none.Process(nil, b); got != nil {
		t.Fatal("none-pass filter returned rows")
	}
}

// TestFusedFiltersKeepInputSchema: a run of filters has no schema of its
// own, so both its compacted and its zero-copy output carry the input's.
func TestFusedFiltersKeepInputSchema(t *testing.T) {
	b := intBatch(100)
	f := NewFused([]engine.Op{&Filter{Pred: I64LT(0, 50)}, &Filter{Pred: I64GE(1, 5)}}, 1, false)
	out := f.Process(nil, b)
	if out.Rows() != 25 || out.Schema != b.Schema {
		t.Fatalf("compacted: %d rows with schema %v, want 25 with the input's %v", out.Rows(), out.Schema, b.Schema)
	}
	all := NewFused([]engine.Op{&Filter{Pred: I64GE(0, 0)}}, 1, true)
	if out := all.Process(nil, b); out.Schema != b.Schema {
		t.Fatalf("zero-copy: schema %v, want the input's %v", out.Schema, b.Schema)
	}
}

func TestProjectSharesColumns(t *testing.T) {
	b := intBatch(10)
	p := NewProject(b.Schema, []int{1})
	out := p.Process(nil, b)
	if out.Schema.Fields[0].Name != "v" || out.Rows() != 10 {
		t.Fatalf("projection wrong: %v", out.Schema)
	}
	if out.Cols[0] != b.Cols[1] {
		t.Fatal("projection should share column storage")
	}
}

func TestMapComputes(t *testing.T) {
	b := intBatch(5)
	m := NewMap(b.Schema, []NamedExpr{{Name: "diff", Type: storage.TInt64, Expr: SubDec(Col(0), Col(1))}})
	out := m.Process(nil, b)
	for i := 0; i < 5; i++ {
		if out.Cols[2].I64[i] != b.Cols[0].I64[i]-b.Cols[1].I64[i] {
			t.Fatalf("row %d wrong", i)
		}
	}
}

func runJoin(t *testing.T, typ JoinType, residual *Residual) *storage.Batch {
	t.Helper()
	e := testEngine(t, 4)
	topo := e.Topology()

	buildSchema := storage.NewSchema(
		storage.Field{Name: "bk", Type: storage.TInt64},
		storage.Field{Name: "bv", Type: storage.TString},
	)
	build := storage.NewBatch(buildSchema, 8)
	for i := 0; i < 8; i++ {
		build.AppendRow(int64(i), fmt.Sprintf("b%d", i))
	}
	probe := intBatch(100) // k: 0..99, v: k%10

	jb := NewJoinBuild(buildSchema, []int{0})
	if err := e.RunPipeline(&engine.Pipeline{
		Name:   "build",
		Source: NewTableSource(tableOf(build, topo), topo.Sockets, 16),
		Sink:   jb,
	}); err != nil {
		t.Fatal(err)
	}
	var buildCols []int
	if typ == Inner || typ == LeftOuter {
		buildCols = []int{1}
	}
	probeOp := NewJoinProbe(jb, typ, probe.Schema, []int{1}, []int{0, 1}, buildCols, residual)
	col := &Collector{}
	if err := e.RunPipeline(&engine.Pipeline{
		Name:   "probe",
		Source: NewTableSource(tableOf(probe, topo), topo.Sockets, 16),
		Ops:    []engine.Op{probeOp},
		Sink:   col,
	}); err != nil {
		t.Fatal(err)
	}
	return col.Flatten(probeOp.Schema)
}

func TestHashJoinTypes(t *testing.T) {
	// probe.v ∈ 0..9; build.bk ∈ 0..7 → v 0..7 match (80 rows), 8..9 not.
	inner := runJoin(t, Inner, nil)
	if inner.Rows() != 80 {
		t.Fatalf("inner: %d rows, want 80", inner.Rows())
	}
	semi := runJoin(t, Semi, nil)
	if semi.Rows() != 80 {
		t.Fatalf("semi: %d rows, want 80", semi.Rows())
	}
	anti := runJoin(t, Anti, nil)
	if anti.Rows() != 20 {
		t.Fatalf("anti: %d rows, want 20", anti.Rows())
	}
	outer := runJoin(t, LeftOuter, nil)
	if outer.Rows() != 100 {
		t.Fatalf("leftouter: %d rows, want 100", outer.Rows())
	}
	nulls := 0
	for i := 0; i < outer.Rows(); i++ {
		if outer.Cols[2].IsNull(i) {
			nulls++
		}
	}
	if nulls != 20 {
		t.Fatalf("leftouter: %d NULL build values, want 20", nulls)
	}
}

func TestJoinResidual(t *testing.T) {
	// Residual keeps only probe rows with k < 50.
	res := &Residual{Pred: I64LT(0, 50), Cols: []ResidualCol{{Col: 0}}}
	inner := runJoin(t, Inner, res)
	if inner.Rows() != 40 {
		t.Fatalf("residual inner: %d rows, want 40", inner.Rows())
	}
	anti := runJoin(t, Anti, res)
	// Anti: no match ⇔ v ∈ {8,9} or k ≥ 50 → 20 + 40 (k≥50, v≤7) = 60.
	if anti.Rows() != 60 {
		t.Fatalf("residual anti: %d rows, want 60", anti.Rows())
	}
}

func TestGroupByParallelMatchesSequential(t *testing.T) {
	b := intBatch(5000)
	topo := numa.TwoSocket()
	want := map[int64]int64{}
	for i := 0; i < b.Rows(); i++ {
		want[b.Cols[1].I64[i]] += b.Cols[0].I64[i]
	}
	for _, workers := range []int{1, 4, 8} {
		e := testEngine(t, workers)
		gb := NewGroupBy(b.Schema, []int{1}, []AggSpec{
			{Kind: Sum, Name: "s", Arg: Col(0), ArgType: storage.TInt64},
			{Kind: Count, Name: "c"},
			{Kind: Min, Name: "mn", Arg: Col(0), ArgType: storage.TInt64},
			{Kind: Max, Name: "mx", Arg: Col(0), ArgType: storage.TInt64},
			{Kind: Avg, Name: "av", Arg: Col(0), ArgType: storage.TInt64},
		}, e.Workers())
		if err := e.RunPipeline(&engine.Pipeline{
			Name:   "agg",
			Source: NewTableSource(tableOf(b, topo), topo.Sockets, 64),
			Sink:   gb,
		}); err != nil {
			t.Fatal(err)
		}
		out := gb.FinalBatches()[0]
		if out.Rows() != len(want) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, out.Rows(), len(want))
		}
		for i := 0; i < out.Rows(); i++ {
			k := out.Cols[0].I64[i]
			if out.Cols[1].I64[i] != want[k] {
				t.Fatalf("workers=%d group %d: sum %d want %d", workers, k, out.Cols[1].I64[i], want[k])
			}
			if out.Cols[2].I64[i] != 500 {
				t.Fatalf("count %d, want 500", out.Cols[2].I64[i])
			}
			if out.Cols[3].I64[i] != k { // min of i with i%10==k is k itself
				t.Fatalf("min %d want %d", out.Cols[3].I64[i], k)
			}
			if out.Cols[4].I64[i] != 4990+k {
				t.Fatalf("max %d want %d", out.Cols[4].I64[i], 4990+k)
			}
			if out.Cols[5].I64[i] != want[k]/500 {
				t.Fatalf("avg %d want %d", out.Cols[5].I64[i], want[k]/500)
			}
		}
	}
}

func TestPartialMergeEqualsDirect(t *testing.T) {
	// Property: partial aggregation + merge must equal direct aggregation.
	b := intBatch(3000)
	topo := numa.TwoSocket()
	aggs := []AggSpec{
		{Kind: Sum, Name: "s", Arg: Col(0), ArgType: storage.TInt64},
		{Kind: Count, Name: "c"},
		{Kind: Avg, Name: "a", Arg: Col(0), ArgType: storage.TInt64},
		{Kind: Min, Name: "mn", Arg: Col(0), ArgType: storage.TInt64},
	}
	e := testEngine(t, 4)
	direct := NewGroupBy(b.Schema, []int{1}, aggs, e.Workers())
	if err := e.RunPipeline(&engine.Pipeline{
		Name: "direct", Source: NewTableSource(tableOf(b, topo), topo.Sockets, 64), Sink: direct,
	}); err != nil {
		t.Fatal(err)
	}
	partial := NewGroupBy(b.Schema, []int{1}, aggs, e.Workers())
	if err := e.RunPipeline(&engine.Pipeline{
		Name: "partial", Source: NewTableSource(tableOf(b, topo), topo.Sockets, 64), Sink: partial,
	}); err != nil {
		t.Fatal(err)
	}
	ps := partial.PartialSchema()
	merge := NewGroupBy(ps, []int{0}, MergeSpecs(aggs, 1), e.Workers())
	if err := e.RunPipeline(&engine.Pipeline{
		Name: "merge", Source: NewBatchSource(partial.PartialBatches()), Sink: merge,
	}); err != nil {
		t.Fatal(err)
	}
	d := direct.FinalBatches()[0]
	m := merge.FinalBatches()[0]
	if d.Rows() != m.Rows() {
		t.Fatalf("group counts differ: %d vs %d", d.Rows(), m.Rows())
	}
	index := map[int64][]any{}
	for i := 0; i < d.Rows(); i++ {
		index[d.Cols[0].I64[i]] = d.Row(i)
	}
	for i := 0; i < m.Rows(); i++ {
		want := index[m.Cols[0].I64[i]]
		got := m.Row(i)
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("group %d col %d: %v vs %v", m.Cols[0].I64[i], c, got[c], want[c])
			}
		}
	}
}

func TestScalarAggEmptyInput(t *testing.T) {
	e := testEngine(t, 2)
	schema := intBatch(0).Schema
	gb := NewGroupBy(schema, nil, []AggSpec{
		{Kind: Count, Name: "c"},
		{Kind: Sum, Name: "s", Arg: Col(0), ArgType: storage.TInt64},
	}, e.Workers())
	if err := e.RunPipeline(&engine.Pipeline{
		Name: "scalar", Source: NewBatchSource(nil), Sink: gb,
	}); err != nil {
		t.Fatal(err)
	}
	out := gb.FinalBatches()[0]
	if out.Rows() != 1 || out.Cols[0].I64[0] != 0 || out.Cols[1].I64[0] != 0 {
		t.Fatalf("empty scalar agg: %v", out.Row(0))
	}
}

func TestTopKOrderAndLimit(t *testing.T) {
	e := testEngine(t, 4)
	topo := e.Topology()
	b := intBatch(1000)
	tk := NewTopK(b.Schema, []SortKey{{Col: 0, Desc: true}}, 7)
	if err := e.RunPipeline(&engine.Pipeline{
		Name: "topk", Source: NewTableSource(tableOf(b, topo), topo.Sockets, 64), Sink: tk,
	}); err != nil {
		t.Fatal(err)
	}
	out := tk.Batches()[0]
	if out.Rows() != 7 {
		t.Fatalf("rows %d", out.Rows())
	}
	for i := 0; i < 7; i++ {
		if out.Cols[0].I64[i] != int64(999-i) {
			t.Fatalf("rank %d: %d", i, out.Cols[0].I64[i])
		}
	}
}

func TestGroupJoinMatchesAggThenJoin(t *testing.T) {
	e := testEngine(t, 4)
	topo := e.Topology()
	buildSchema := storage.NewSchema(storage.Field{Name: "gk", Type: storage.TInt64})
	build := storage.NewBatch(buildSchema, 5)
	for i := 0; i < 5; i++ {
		build.AppendRow(int64(i))
	}
	probe := intBatch(1000) // v = k%10; groups 0..4 match

	gjb := NewGroupJoinBuild(buildSchema, []int{0}, []AggSpec{
		{Kind: Sum, Name: "s", Arg: Col(0), ArgType: storage.TInt64},
		{Kind: Count, Name: "c"},
	})
	if err := e.RunPipeline(&engine.Pipeline{
		Name: "gj-build", Source: NewTableSource(tableOf(build, topo), topo.Sockets, 16), Sink: gjb,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunPipeline(&engine.Pipeline{
		Name:   "gj-probe",
		Source: NewTableSource(tableOf(probe, topo), topo.Sockets, 64),
		Sink:   &GroupJoinProbe{Build: gjb, ProbeKeys: []int{1}},
	}); err != nil {
		t.Fatal(err)
	}
	out := gjb.ResultBatches()[0]
	if out.Rows() != 5 {
		t.Fatalf("%d matched groups, want 5", out.Rows())
	}
	want := map[int64]int64{}
	for i := 0; i < probe.Rows(); i++ {
		want[probe.Cols[1].I64[i]] += probe.Cols[0].I64[i]
	}
	for i := 0; i < out.Rows(); i++ {
		g := out.Cols[0].I64[i]
		if out.Cols[1].I64[i] != want[g] {
			t.Fatalf("group %d: sum %d want %d", g, out.Cols[1].I64[i], want[g])
		}
		if out.Cols[2].I64[i] != 100 {
			t.Fatalf("group %d: count %d want 100", g, out.Cols[2].I64[i])
		}
	}
}

// vecAt evaluates e's batch form at row 0 of b into a fresh column of
// type typ, and returns row 0 of the result.
func vecAt(e Expr, b *storage.Batch, typ storage.Type) rowVal {
	dst := storage.NewColumn(typ, false, b.Rows())
	dst.SetLen(b.Rows())
	return colVal(e.Vec(nil, b, []int32{0}, dst), 0)
}

// holdsAt reports whether p's batch form selects row 0 of b.
func holdsAt(p Pred, b *storage.Batch) bool {
	return len(p.Select(nil, b, []int32{0}, make([]int32, 0, 1))) == 1
}

func TestExprHelpers(t *testing.T) {
	s := storage.NewSchema(
		storage.Field{Name: "d", Type: storage.TDecimal},
		storage.Field{Name: "dt", Type: storage.TDate},
		storage.Field{Name: "s", Type: storage.TString},
	)
	b := storage.NewBatch(s, 1)
	b.AppendRow(int64(250), storage.MustDate("1997-03-15"), "49-123-456-7890")
	dec := func(e Expr) int64 { return vecAt(e, b, storage.TDecimal).I }

	if dec(MulDec(Col(0), ConstI(200))) != 500 { // 2.50 × 2.00
		t.Fatal("MulDec")
	}
	if dec(SubDec(Col(0), ConstI(50))) != 200 {
		t.Fatal("SubDec")
	}
	if dec(SubDecConst(100, Col(0))) != -150 {
		t.Fatal("SubDecConst")
	}
	if dec(AddDecConst(100, Col(0))) != 350 {
		t.Fatal("AddDecConst")
	}
	if vecAt(Year(1), b, storage.TInt64).I != 1997 {
		t.Fatal("Year")
	}
	if dec(DivDecConst(Col(0), 7)) != 35 {
		t.Fatal("DivDecConst")
	}
	if dec(Ratio(Col(0), ConstI(1000), 100)) != 25 {
		t.Fatal("Ratio")
	}
	if !vecAt(Ratio(Col(0), ConstI(0), 100), b, storage.TDecimal).Null {
		t.Fatal("Ratio by zero is not NULL")
	}
	if vecAt(Substr(2, 0, 2), b, storage.TString).S != "49" {
		t.Fatal("Substr")
	}
	if !holdsAt(StrPrefixIn(2, 2, "49", "13"), b) {
		t.Fatal("StrPrefixIn")
	}
	if !holdsAt(I64In(0, 7, 250), b) || holdsAt(I64In(0, 7), b) {
		t.Fatal("I64In")
	}
	if dec(CaseWhen(I64GT(0, 0), ConstI(1), ConstI(2))) != 1 {
		t.Fatal("CaseWhen")
	}
}

func TestPredicateCombinators(t *testing.T) {
	b := intBatch(1) // k = 0
	tr, fa := I64GE(0, 0), I64LT(0, 0)
	if !holdsAt(And(tr, tr), b) || holdsAt(And(tr, fa), b) || !holdsAt(And(), b) {
		t.Fatal("And")
	}
	if !holdsAt(Or(fa, tr), b) || holdsAt(Or(fa, fa), b) || holdsAt(Or(), b) {
		t.Fatal("Or")
	}
	if holdsAt(Not(tr), b) || !holdsAt(Not(fa), b) {
		t.Fatal("Not")
	}
}

func TestCompareRowsProperty(t *testing.T) {
	s := storage.NewSchema(storage.Field{Name: "x", Type: storage.TInt64})
	keys := []SortKey{{Col: 0}}
	f := func(a, b int64) bool {
		ba := storage.NewBatch(s, 1)
		ba.AppendRow(a)
		bb := storage.NewBatch(s, 1)
		bb.AppendRow(b)
		cmp := CompareRows(ba, 0, bb, 0, keys)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestJoinBuildLayoutIsShardOrder: Finalize indexes the collected batches
// in place, and walking its chunks in id order yields the rows a copy in
// shard order (worker id mod shards, arrival order within a shard) holds —
// chain iteration order, and so the order of join output, rests on it.
func TestJoinBuildLayoutIsShardOrder(t *testing.T) {
	schema := storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "s", Type: storage.TString, Nullable: true},
		storage.Field{Name: "f", Type: storage.TFloat64},
	)
	batchOf := func(first, n int) *storage.Batch {
		b := storage.NewBatch(schema, n)
		for i := first; i < first+n; i++ {
			var s any
			if i%4 != 0 {
				s = fmt.Sprint("s", i)
			}
			b.AppendRow(int64(i%7), s, float64(i)/2)
		}
		return b
	}
	jb := NewJoinBuild(schema, []int{0})
	want := storage.NewBatch(schema, 0)
	byShard := make([][]*storage.Batch, joinBuildShards)
	next := 0
	for _, id := range []int{3, 0, 11, 3, 9, 0, 1} { // 11 and 3 share a shard, 9 and 1 too
		b := batchOf(next, 5+id)
		next += b.Rows()
		jb.Consume(&engine.Worker{ID: id}, b)
		byShard[id%joinBuildShards] = append(byShard[id%joinBuildShards], b)
	}
	for _, batches := range byShard {
		for _, b := range batches {
			for r := 0; r < b.Rows(); r++ {
				want.AppendRowFrom(b, r)
			}
		}
	}
	if err := jb.Finalize(); err != nil {
		t.Fatal(err)
	}
	ht := jb.Table()
	if ht.Size() != want.Rows() {
		t.Fatalf("build has %d rows, want %d", ht.Size(), want.Rows())
	}
	r := 0
	for c, ch := range ht.chunks {
		chunk := ch.b
		for o := 0; o < chunk.Rows(); o, r = o+1, r+1 {
			if got := fmt.Sprint(chunk.Row(o)); got != fmt.Sprint(want.Row(r)) {
				t.Fatalf("chunk %d row %d is %v, shard-order copy has %v at row %d", c, o, got, want.Row(r), r)
			}
		}
	}
	if r != want.Rows() {
		t.Fatalf("chunks hold %d rows, want %d", r, want.Rows())
	}
	// The probes' walker visits row ids in ascending order, resolves each to
	// the row ht.row names and the copy holds at that position, and reaches
	// every row once.
	seen := 0
	walk := ht.chain()
	for k := int64(0); k < 7; k++ {
		last := int32(-1)
		for id := ht.first(storage.HashI64(k)); id >= 0; {
			if id <= last {
				t.Fatalf("key %d: chain visits id %d after id %d", k, id, last)
			}
			last = id
			ch, bi, next := walk.step(id)
			if build, o := ht.row(id); build != ch.b || o != bi {
				t.Fatalf("the walker resolves id %d to row %d of another batch than ht.row's row %d", id, bi, o)
			}
			if r := ch.start + bi; fmt.Sprint(ch.b.Row(bi)) != fmt.Sprint(want.Row(r)) {
				t.Fatalf("id %d resolves to %v, row %d of the copy is %v", id, ch.b.Row(bi), r, want.Row(r))
			}
			if ch.b.Cols[0].I64[bi] == k {
				seen++
			}
			id = next
		}
	}
	if seen != want.Rows() {
		t.Fatalf("chains reach %d of %d build rows", seen, want.Rows())
	}
}
