package plan

import (
	"strings"
	"testing"

	"hsqp/internal/op"
	"hsqp/internal/storage"
)

func testSchemas() (*storage.Schema, *storage.Schema) {
	left := storage.NewSchema(
		storage.Field{Name: "l_k", Type: storage.TInt64},
		storage.Field{Name: "l_v", Type: storage.TDecimal},
	)
	right := storage.NewSchema(
		storage.Field{Name: "r_k", Type: storage.TInt64},
		storage.Field{Name: "r_name", Type: storage.TString},
	)
	return left, right
}

func TestBuilderSchemas(t *testing.T) {
	ls, rs := testSchemas()
	l := Scan("left", ls)
	r := Scan("right", rs)

	sel := l.Select(op.I64GT(l.Col("l_v"), 0))
	if !sel.Schema().Equal(ls) {
		t.Fatal("select must preserve schema")
	}
	proj := l.Project("l_v")
	if proj.Schema().Len() != 1 || proj.Schema().Fields[0].Name != "l_v" {
		t.Fatal("project schema wrong")
	}
	m := l.Map(op.NamedExpr{Name: "x", Type: storage.TInt64, Expr: op.ConstI(1)})
	if m.Schema().Len() != 3 || m.Col("x") != 2 {
		t.Fatal("map schema wrong")
	}
	j := l.Join(r, []string{"l_k"}, []string{"r_k"}, JoinSpec{Type: op.Inner})
	if j.Schema().Len() != 4 {
		t.Fatalf("inner join schema %v", j.Schema())
	}
	semi := l.Join(r, []string{"l_k"}, []string{"r_k"}, JoinSpec{Type: op.Semi})
	if !semi.Schema().Equal(ls) {
		t.Fatal("semi join must keep probe schema only")
	}
	outer := l.Join(r, []string{"l_k"}, []string{"r_k"},
		JoinSpec{Type: op.LeftOuter, BuildOut: []string{"r_name"}})
	f := outer.Schema().Fields[2]
	if f.Name != "r_name" || !f.Nullable {
		t.Fatalf("left outer build column must be nullable: %+v", f)
	}
	g := l.GroupBy([]string{"l_k"},
		op.AggSpec{Kind: op.Sum, Name: "s", Arg: op.Col(1), ArgType: storage.TDecimal},
		op.AggSpec{Kind: op.Count, Name: "c"},
		op.AggSpec{Kind: op.Avg, Name: "a", Arg: op.Col(1), ArgType: storage.TDecimal},
	)
	gs := g.Schema()
	if gs.Len() != 4 || gs.Fields[1].Type != storage.TDecimal ||
		gs.Fields[2].Type != storage.TInt64 || gs.Fields[3].Type != storage.TDecimal {
		t.Fatalf("groupby schema %v", gs)
	}
	gj := l.GroupJoin(r, []string{"l_k"}, []string{"r_k"},
		op.AggSpec{Kind: op.Count, Name: "n"})
	if gj.Schema().Len() != 3 || gj.Col("n") != 2 {
		t.Fatalf("groupjoin schema %v", gj.Schema())
	}
}

func TestJoinKeyArityMismatchPanics(t *testing.T) {
	ls, rs := testSchemas()
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	Scan("l", ls).Join(Scan("r", rs), []string{"l_k"}, nil, JoinSpec{Type: op.Inner})
}

func TestExplainMentionsOperators(t *testing.T) {
	ls, rs := testSchemas()
	root := Scan("left", ls).
		Select(op.I64GT(1, 0)).
		Join(Scan("right", rs), []string{"l_k"}, []string{"r_k"},
			JoinSpec{Type: op.Inner, Strategy: BroadcastBuild}).
		GroupBy([]string{"l_k"}, op.AggSpec{Kind: op.Count, Name: "n"}).
		OrderBy([]op.SortKey{{Col: 1, Desc: true}}, 5)
	out := Explain(NewQuery("demo", root))
	for _, want := range []string{"scan left", "scan right", "select", "inner join",
		"[broadcast build]", "groupby", "top-5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainSkewAdaptive(t *testing.T) {
	ls, rs := testSchemas()
	root := Scan("left", ls).Join(Scan("right", rs), []string{"l_k"}, []string{"r_k"},
		JoinSpec{Type: op.Inner, Strategy: SkewAdaptive})
	out := Explain(NewQuery("demo", root))
	if !strings.Contains(out, "[skew-adaptive") {
		t.Fatalf("explain missing skew-adaptive strategy:\n%s", out)
	}
}

func TestAlignedAndRemap(t *testing.T) {
	if !aligned([]int{1, 2}, []int{1, 2}) {
		t.Fatal("aligned false negative")
	}
	if aligned([]int{2, 1}, []int{1, 2}) || aligned(nil, []int{0}) || aligned([]int{0}, []int{0, 1}) {
		t.Fatal("aligned false positive")
	}
	if got := remap([]int{3, 1}, []int{1, 5, 3}); got == nil || got[0] != 2 || got[1] != 0 {
		t.Fatalf("remap: %v", got)
	}
	if remap([]int{4}, []int{1, 2}) != nil {
		t.Fatal("remap of dropped column must be nil")
	}
	if got := remap([]int{7}, nil); got == nil || got[0] != 7 {
		t.Fatal("remap with nil projection must be identity")
	}
}
