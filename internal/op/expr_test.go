package op

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// strVocab holds the strings exprBatch draws: prefixes of one another,
// LIKE and contains hits and misses, phone-like codes, the empty string.
var strVocab = []string{"", "a", "ab", "abc", "PROMO ANODIZED", "MEDIUM POLISHED", "13-42", "31-7", "special requests", "xspecialyrequestsz"}

// firstDay is the first date exprBatch draws.
var firstDay = storage.MustDate("1992-01-01")

// exprBatch returns n random rows over every column shape the kernels
// read: non-nullable int, decimal, date, string and float columns, and
// nullable int, decimal, string and float columns, about one value in five
// NULL.
func exprBatch(rng *rand.Rand, n int) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "i", Type: storage.TInt64},
		storage.Field{Name: "d", Type: storage.TDecimal},
		storage.Field{Name: "dt", Type: storage.TDate},
		storage.Field{Name: "s", Type: storage.TString},
		storage.Field{Name: "f", Type: storage.TFloat64},
		storage.Field{Name: "ni", Type: storage.TInt64, Nullable: true},
		storage.Field{Name: "nd", Type: storage.TDecimal, Nullable: true},
		storage.Field{Name: "ns", Type: storage.TString, Nullable: true},
		storage.Field{Name: "nf", Type: storage.TFloat64, Nullable: true},
	), n)
	for r := 0; r < n; r++ {
		row := []any{
			rng.Int63n(100) - 20, rng.Int63n(1000), firstDay + rng.Int63n(2600),
			strVocab[rng.Intn(len(strVocab))], rng.Float64() * 100,
			rng.Int63n(100) - 20, rng.Int63n(1000), strVocab[rng.Intn(len(strVocab))], rng.Float64() * 100,
		}
		for c := 5; c < len(row); c++ {
			if rng.Intn(5) == 0 {
				row[c] = nil
			}
		}
		b.AppendRow(row...)
	}
	return b
}

// gen draws random predicates and expressions over a schema, from every
// constructor the package has, nested up to a depth.
type gen struct {
	rng    *rand.Rand
	schema *storage.Schema
}

func isStr(t storage.Type) bool { return t == storage.TString }

// col returns a random column whose type satisfies want (false: none).
func (g gen) col(want func(storage.Type) bool) (int, bool) {
	var cs []int
	for c, f := range g.schema.Fields {
		if want(f.Type) {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		return 0, false
	}
	return cs[g.rng.Intn(len(cs))], true
}

// pred returns a leaf predicate over a random column or, while depth
// lasts, an And, Or or Not of smaller ones.
func (g gen) pred(depth int) Pred {
	if depth > 0 && g.rng.Intn(3) == 0 {
		a, b := g.pred(depth-1), g.pred(depth-1)
		switch g.rng.Intn(4) {
		case 0:
			return And(a, b)
		case 1:
			return And(a, b, g.pred(depth-1))
		case 2:
			return Or(a, b)
		default:
			return Not(a)
		}
	}
	return g.leaf(g.rng.Intn(len(g.schema.Fields)))
}

// leaf returns a random comparison or string predicate over column c; a
// float column, which no predicate reads, gets And() (always true).
func (g gen) leaf(c int) Pred {
	r := g.rng
	t := g.schema.Fields[c].Type
	switch t {
	case storage.TString:
		v := strVocab[r.Intn(len(strVocab))]
		switch r.Intn(6) {
		case 0:
			return StrEQ(c, v)
		case 1:
			return StrIn(c, v, strVocab[r.Intn(len(strVocab))])
		case 2:
			return StrPrefix(c, v[:r.Intn(len(v)+1)])
		case 3:
			return StrContains(c, v[r.Intn(len(v)+1):])
		case 4:
			return Like(c, []string{"%special%requests%", "PROMO%", "%3-%", "ab", "%", "a%c"}[r.Intn(6)])
		default:
			return StrPrefixIn(c, 2, "13", "31", "ab", "PR")
		}
	case storage.TFloat64:
		return And()
	}
	v := r.Int63n(1200) - 100
	if t == storage.TDate {
		v = firstDay + r.Int63n(2600)
	}
	switch r.Intn(8) {
	case 0:
		return I64LT(c, v)
	case 1:
		return I64LE(c, v)
	case 2:
		return I64GT(c, v)
	case 3:
		return I64GE(c, v)
	case 4:
		return I64EQ(c, r.Int63n(40)-20)
	case 5:
		return I64Between(c, v, v+r.Int63n(400)-50) // sometimes empty
	case 6:
		vs := make([]int64, 1+r.Intn(12))
		for i := range vs {
			vs[i] = r.Int63n(40) - 20
		}
		return I64In(c, vs...)
	default:
		return g.cmp(c)
	}
}

// cmp returns a random two-operand comparison whose first operand reads
// column c: over two columns, or with either operand computed over them.
func (g gen) cmp(c int) Pred {
	r := g.rng
	other, _ := g.col(isI64)
	a, b := Col(c), Col(other)
	if r.Intn(3) == 0 {
		b = MulDec(b, g.intExpr(0))
	}
	if r.Intn(4) == 0 {
		a = SubDecConst(100, a)
	}
	switch r.Intn(4) {
	case 0:
		return ColLT(c, other)
	case 1:
		return LT(a, b)
	case 2:
		return NE(a, b)
	default:
		return GTFrac(a, b, []float64{0, 0.5, 1, 2.5}[r.Intn(4)])
	}
}

// intExpr returns a random integer-backed expression.
func (g gen) intExpr(depth int) Expr {
	r := g.rng
	if depth <= 0 || r.Intn(4) == 0 {
		if c, ok := g.col(isI64); ok && r.Intn(4) != 0 {
			return Col(c)
		}
		return ConstI(r.Int63n(300) - 50)
	}
	sub := func() Expr { return g.intExpr(depth - 1) }
	switch r.Intn(9) {
	case 0:
		return MulDec(sub(), sub())
	case 1:
		return SubDec(sub(), sub())
	case 2:
		return SubDecConst(100, sub())
	case 3:
		return AddDecConst(100, sub())
	case 4:
		return DivDecConst(sub(), 1+r.Int63n(9))
	case 5:
		return Ratio(sub(), sub(), 100) // NULL where the divisor is 0
	case 6:
		if c, ok := g.col(isI64); ok {
			return Year(c)
		}
		return sub()
	case 7:
		return CaseWhen(g.pred(depth-1), sub(), sub())
	default: // Q1's revenue: l_extendedprice × (1 − l_discount)
		return MulDec(sub(), SubDecConst(100, sub()))
	}
}

// strExpr returns a random string expression; the schema has a string
// column.
func (g gen) strExpr(depth int) Expr {
	c, _ := g.col(isStr)
	switch g.rng.Intn(3) {
	case 0:
		return Col(c)
	case 1:
		return Substr(c, g.rng.Intn(3), g.rng.Intn(4))
	default:
		if depth <= 0 {
			return Col(c)
		}
		return CaseWhen(g.pred(depth-1), g.strExpr(depth-1), g.strExpr(depth-1))
	}
}

// expr returns a random expression and a declared type of its kind.
func (g gen) expr(depth int) (Expr, storage.Type) {
	switch g.rng.Intn(5) {
	case 0:
		if _, ok := g.col(isStr); ok {
			return g.strExpr(depth), storage.TString
		}
	case 1:
		if c, ok := g.col(func(t storage.Type) bool { return t == storage.TFloat64 }); ok {
			return Col(c), storage.TFloat64
		}
	}
	return g.intExpr(depth), []storage.Type{storage.TInt64, storage.TDecimal, storage.TDate}[g.rng.Intn(3)]
}

// selections returns an empty, a full and two sparse selections of n rows.
func selections(rng *rand.Rand, n int) [][]int32 {
	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	sparse := func(oneIn int) []int32 {
		s := []int32{}
		for i := 0; i < n; i++ {
			if rng.Intn(oneIn) == 0 {
				s = append(s, int32(i))
			}
		}
		return s
	}
	return [][]int32{{}, full, sparse(2), sparse(9)}
}

// valAt reads the value stored at row i of c, NULL or not, into the field
// c's type selects.
func valAt(c *storage.Column, i int) rowVal {
	switch c.Type {
	case storage.TFloat64:
		return rowVal{F: c.F64[i]}
	case storage.TString:
		return rowVal{S: c.Str[i]}
	default:
		return rowVal{I: c.I64[i]}
	}
}

// stackTop returns the vectors a worker's next scratch pushes of n values
// get: the same before and after a kernel over n rows that pops everything
// it pushes (its own pushes, of at most n, never regrow them).
func stackTop(w *engine.Worker, n int) [2]any {
	c := w.PushCol(storage.TInt64, max(n, 1))
	w.PopCol()
	v := w.PushI32(max(n, 1))[:1]
	w.PopI32(v)
	return [2]any{c, &v[0]}
}

// checkBatchMatchesRow draws a predicate and an expression per selection
// of b and checks their batch forms against the row oracle. nulls, when
// not nil, counts per expression type the results that held a NULL.
func checkBatchMatchesRow(t *testing.T, rng *rand.Rand, w *engine.Worker, b *storage.Batch, nulls map[string]int) {
	t.Helper()
	g := gen{rng, b.Schema}
	n := b.Rows()
	for _, sel := range selections(rng, n) {
		p := g.pred(2)
		want := []int32{}
		for _, i := range sel {
			if evalPred(p, b, int(i)) {
				want = append(want, i)
			}
		}
		aliased := append([]int32(nil), sel...)
		top := stackTop(w, n)
		for mode, got := range map[string][]int32{
			"fresh out":       p.Select(w, b, sel, make([]int32, 0, len(sel))),
			"out aliases sel": p.Select(w, b, aliased, aliased),
		} {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%T (%s) over %d of %d rows selects %v, the row oracle %v", p, mode, len(sel), n, got, want)
			}
		}
		if stackTop(w, n) != top {
			t.Fatalf("%T.Select leaves the worker's scratch stack unbalanced", p)
		}

		e, typ := g.expr(2)
		dst := storage.NewColumn(typ, false, n)
		dst.SetLen(n)
		prior := make([]rowVal, n)
		for i := range prior {
			switch typ {
			case storage.TFloat64:
				dst.F64[i] = -7777777
			case storage.TString:
				dst.Str[i] = "untouched"
			default:
				dst.I64[i] = -7777777
			}
			prior[i] = valAt(dst, i)
		}
		res := e.Vec(w, b, sel, dst)
		if stackTop(w, n) != top {
			t.Fatalf("%T.Vec leaves the worker's scratch stack unbalanced", e)
		}
		in := make([]bool, n)
		for _, i := range sel {
			in[i] = true
			want, got := evalExpr(e, b, int(i)), colVal(res, int(i))
			if want.Null != got.Null || !want.Null && got != want {
				t.Fatalf("%T over %d of %d rows: Vec has %+v at row %d, the row oracle %+v", e, len(sel), n, got, i, want)
			}
			if got.Null && nulls != nil {
				nulls[fmt.Sprintf("%T", e)]++
			}
		}
		if res != dst {
			continue
		}
		for i := range in {
			if !in[i] && valAt(dst, i) != prior[i] {
				t.Fatalf("%T over %d of %d rows wrote row %d, outside the selection", e, len(sel), n, i)
			}
		}
	}
}

// TestBatchMatchesRow is the differential test of every predicate and
// expression constructor against the row oracle: over random batches with
// NULLs and random selections (empty, full, sparse), a predicate's Select
// keeps exactly the rows the oracle accepts, with a fresh out and with out
// aliasing sel; an expression's Vec holds the oracle's value and validity
// at every selected row and leaves the rest of dst alone; and every kernel
// pops what it pushes.
func TestBatchMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	w := testEngine(t, 1).NewWorker(0)
	nulls := map[string]int{}
	for round := 0; round < 400; round++ {
		checkBatchMatchesRow(t, rng, w, exprBatch(rng, rng.Intn(150)), nulls)
	}
	for _, k := range []string{"*op.colExpr", "*op.decConst", "*op.decPair", "*op.yearExpr", "*op.caseWhen", "*op.substrExpr"} {
		if nulls[k] == 0 {
			t.Errorf("no %s result held a NULL: the test never compared its validity", k)
		}
	}
}

// FuzzBatchMatchesRow is TestBatchMatchesRow's check under the fuzzer: a
// seed for the batch, the selections, the predicate and the expression,
// and a row count.
func FuzzBatchMatchesRow(f *testing.F) {
	for _, s := range []struct {
		seed int64
		rows uint16
	}{{1, 0}, {2, 1}, {3, 17}, {4, 64}, {5, 200}, {30, 99}} {
		f.Add(s.seed, s.rows)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkBatchMatchesRow(t, rng, &engine.Worker{}, exprBatch(rng, int(rows%512)), nil)
	})
}

// TestComparisonsRejectNull: a NULL compares false in every comparison and
// string predicate, over a column and over a computed operand, and Not
// negates that collapsed boolean.
func TestComparisonsRejectNull(t *testing.T) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "i", Type: storage.TInt64, Nullable: true},
		storage.Field{Name: "s", Type: storage.TString, Nullable: true},
		storage.Field{Name: "j", Type: storage.TInt64, Nullable: true},
	), 1)
	b.AppendRow(nil, nil, int64(1))
	w := &engine.Worker{}
	for name, p := range map[string]Pred{
		"I64LT":       I64LT(0, 5),
		"I64LE":       I64LE(0, 5),
		"I64GT":       I64GT(0, -5),
		"I64GE":       I64GE(0, -5),
		"I64EQ":       I64EQ(0, 0),
		"I64Between":  I64Between(0, -5, 5),
		"I64In":       I64In(0, 0, 1),
		"ColLT":       ColLT(0, 2),
		"LT":          LT(MulDec(Col(0), ConstI(100)), Col(2)),
		"NE":          NE(Col(2), Col(0)),
		"GTFrac":      GTFrac(Col(2), SubDecConst(0, Col(0)), 0.5),
		"StrEQ":       StrEQ(1, ""),
		"StrIn":       StrIn(1, "", "a"),
		"StrPrefix":   StrPrefix(1, ""),
		"StrContains": StrContains(1, ""),
		"Like":        Like(1, "%"),
		"StrPrefixIn": StrPrefixIn(1, 0, ""),
	} {
		if got := p.Select(w, b, []int32{0}, make([]int32, 0, 1)); len(got) != 0 {
			t.Errorf("%s selects a NULL row", name)
		}
		if got := Not(p).Select(w, b, []int32{0}, make([]int32, 0, 1)); len(got) != 1 {
			t.Errorf("NOT %s does not hold on a NULL row", name)
		}
	}
}

// TestKernelsRejectForeignType: an expression asked for values of a type
// it has none of panics, naming the expression and the type, instead of
// storing zeros.
func TestKernelsRejectForeignType(t *testing.T) {
	b := exprBatch(rand.New(rand.NewSource(32)), 4)
	for name, c := range map[string]struct {
		e   Expr
		typ storage.Type
	}{
		"ConstI into float":  {ConstI(5), storage.TFloat64},
		"MulDec into string": {MulDec(Col(1), ConstI(100)), storage.TString},
		"Ratio into float":   {Ratio(Col(1), Col(0), 100), storage.TFloat64},
		"Year into string":   {Year(2), storage.TString},
		"Substr into int":    {Substr(3, 0, 1), storage.TInt64},
		"Col int into float": {Col(0), storage.TFloat64},
		"Col float into dec": {Col(4), storage.TDecimal},
		"CaseWhen mixed":     {CaseWhen(I64GE(0, 0), Col(1), Col(4)), storage.TDecimal},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "op: expression") || !strings.Contains(msg, c.typ.String()) {
					t.Errorf("%s: panic %q, want one naming the expression and %v", name, msg, c.typ)
				}
			}()
			dst := storage.NewColumn(c.typ, false, b.Rows())
			dst.SetLen(b.Rows())
			c.e.Vec(&engine.Worker{}, b, []int32{0, 1, 2, 3}, dst)
		}()
	}
}

// TestFoldMatchesRowOracle: the per-batch fold of GroupBy (keyed and
// scalar) and GroupJoinProbe leaves the aggregate state the row oracle,
// row by row, leaves — for every AggKind over integer-backed arguments
// (columns, MulDec, CaseWhen, a Ratio that is sometimes NULL) and over
// float and string arguments, nullable ones among them, skipping NULLs.
// The keyed GroupBy also runs on two workers, and the merged FinalBatches
// must hold the oracle's groups, NULL keys grouped together. GroupJoin's
// build repeats two keys, so a probe row folds into two groups, and holds
// a NULL key, which no probe row hits, NULL or not.
func TestFoldMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := testEngine(t, 2)
	ws := []*engine.Worker{e.NewWorker(0), e.NewWorker(1)}
	w := ws[0]
	dec := func(k AggKind, name string, arg Expr) AggSpec {
		return AggSpec{Kind: k, Name: name, Arg: arg, ArgType: storage.TDecimal}
	}
	typed := func(k AggKind, name string, arg Expr, typ storage.Type) AggSpec {
		return AggSpec{Kind: k, Name: name, Arg: arg, ArgType: typ}
	}
	aggs := []AggSpec{
		{Kind: Count, Name: "n"},
		{Kind: Count, Name: "n_i", Arg: Col(0)},
		{Kind: Count, Name: "n_ni", Arg: Col(5)},
		dec(Sum, "sum_d", Col(1)),
		dec(Sum, "sum_nd", Col(6)),
		dec(Sum, "sum_rev", MulDec(Col(1), SubDecConst(100, Col(0)))),
		dec(Sum, "sum_nrev", MulDec(Col(6), SubDecConst(100, Col(5)))),
		dec(Sum, "sum_case", CaseWhen(StrPrefix(3, "a"), Col(1), ConstI(0))),
		dec(Sum, "sum_ncase", CaseWhen(StrPrefix(7, "a"), Col(6), ConstI(0))),
		dec(Sum, "sum_ratio", Ratio(Col(1), Col(0), 100)),
		typed(Sum, "sum_f", Col(4), storage.TFloat64),
		typed(Sum, "sum_nf", Col(8), storage.TFloat64),
		dec(Avg, "avg_d", Col(1)),
		dec(Avg, "avg_nd", Col(6)),
		typed(Avg, "avg_nf", Col(8), storage.TFloat64),
		dec(Min, "min_i", Col(0)),
		dec(Min, "min_ni", Col(5)),
		dec(Max, "max_d", Col(1)),
		dec(Max, "max_nd", Col(6)),
		typed(Min, "min_s", Col(3), storage.TString),
		typed(Min, "min_ns", Col(7), storage.TString),
		typed(Max, "max_ns", Col(7), storage.TString),
		typed(Min, "min_sub", Substr(7, 1, 2), storage.TString),
		typed(Max, "max_f", Col(4), storage.TFloat64),
		typed(Min, "min_nf", Col(8), storage.TFloat64),
		typed(Max, "max_nf", Col(8), storage.TFloat64),
		{Kind: AvgMerge, Name: "am", Arg: Col(1), Arg2: Col(0), ArgType: storage.TDecimal},
		{Kind: AvgMerge, Name: "am_n", Arg: Col(6), Arg2: Col(0), ArgType: storage.TDecimal},
		{Kind: AvgMerge, Name: "am_nc", Arg: Col(1), Arg2: Col(5), ArgType: storage.TDecimal},
		{Kind: AvgMerge, Name: "am_nf", Arg: Col(8), Arg2: Col(0), ArgType: storage.TFloat64},
	}
	batches := make([]*storage.Batch, 6)
	for i := range batches {
		batches[i] = exprBatch(rng, rng.Intn(300))
	}
	foldRow := func(st []aggState, b *storage.Batch, i int) {
		for a := range aggs {
			updateRow(&st[a], &aggs[a], b, i)
		}
	}
	check := func(what string, got, want []aggState) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d states, the row oracle gives %d", what, len(got), len(want))
		}
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("%s: group %d, %s: %+v, the row oracle gives %+v", what, s/len(aggs), aggs[s%len(aggs)].Name, got[s], want[s])
			}
		}
	}

	// With two workers the oracle folds each worker's batches apart and
	// combines their states in worker order, as Finalize does, so float
	// sums add up in the same order.
	for _, c := range []struct {
		keys    []int
		workers int
	}{{[]int{3, 7}, 1}, {nil, 1}, {[]int{3, 7}, 2}} {
		what := fmt.Sprintf("GroupBy keys=%v workers=%d", c.keys, c.workers)
		g := NewGroupBy(batches[0].Schema, c.keys, aggs, c.workers)
		want := make([][]aggState, c.workers) // per worker, by oracle group
		var firstRow [][2]int                 // per oracle group: its first batch and row
		groupOf := map[string]int{}
		for bi, b := range batches {
			wk := bi % c.workers
			g.Consume(ws[wk], b)
			for i := 0; i < b.Rows(); i++ {
				key := ""
				if c.keys != nil {
					key = fmt.Sprintf("%q", []any{b.Cols[3].Value(i), b.Cols[7].Value(i)})
				}
				gid, ok := groupOf[key]
				if !ok {
					gid = len(groupOf)
					groupOf[key] = gid
					firstRow = append(firstRow, [2]int{bi, i})
				}
				for len(want[wk]) <= gid*len(aggs) {
					want[wk] = append(want[wk], make([]aggState, len(aggs))...)
				}
				foldRow(want[wk][gid*len(aggs):(gid+1)*len(aggs)], b, i)
			}
		}
		if c.workers == 1 {
			check(what, g.tables[0].states, want[0])
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		wantOut := storage.NewBatch(g.FinalSchema(), len(firstRow))
		for gid, at := range firstRow {
			merged := make([]aggState, len(aggs))
			for _, st := range want {
				for a := range aggs {
					if s := gid*len(aggs) + a; s < len(st) {
						mergeState(&merged[a], &st[s], &aggs[a])
					}
				}
			}
			for k, kc := range c.keys {
				wantOut.Cols[k].AppendFrom(batches[at[0]].Cols[kc], at[1])
			}
			for a := range aggs {
				appendFinal(wantOut.Cols[len(c.keys)+a], &merged[a], &aggs[a])
			}
		}
		out := g.FinalBatches()
		got, wantRows := rowStrings(out[0]), rowStrings(wantOut)
		slices.Sort(got)
		slices.Sort(wantRows)
		if !slices.Equal(got, wantRows) {
			t.Fatalf("%s: FinalBatches holds %d groups %v, the row oracle gives %d: %v", what, len(got), got, len(wantRows), wantRows)
		}
	}

	// NULL is the last build key; the probe runs on a non-nullable key
	// column and on a nullable one.
	buildKeys := []any{int64(0), int64(1), int64(2), int64(3), int64(4), int64(5), int64(6), int64(7), int64(8), int64(9), int64(3), int64(5), nil}
	build := storage.NewBatch(storage.NewSchema(storage.Field{Name: "k", Type: storage.TInt64, Nullable: true}), len(buildKeys))
	for _, k := range buildKeys {
		build.AppendRow(k)
	}
	for _, pk := range []int{0, 5} {
		what := fmt.Sprintf("GroupJoinProbe on column %d", pk)
		gjb := NewGroupJoinBuild(build.Schema, []int{0}, aggs)
		gjb.Consume(w, build)
		if err := gjb.Finalize(); err != nil {
			t.Fatal(err)
		}
		probe := &GroupJoinProbe{Build: gjb, ProbeKeys: []int{pk}}
		want := make([]aggState, len(buildKeys)*len(aggs))
		wantHit := make([]bool, len(buildKeys))
		for _, b := range batches {
			probe.Consume(w, b)
			for i := 0; i < b.Rows(); i++ {
				for d, k := range buildKeys {
					if k != nil && !b.Cols[pk].IsNull(i) && b.Cols[pk].I64[i] == k {
						wantHit[d] = true
						foldRow(want[d*len(aggs):(d+1)*len(aggs)], b, i)
					}
				}
			}
		}
		check(what, gjb.state, want)
		if !reflect.DeepEqual(gjb.hit, wantHit) {
			t.Fatalf("%s: hits %v, want %v", what, gjb.hit, wantHit)
		}
	}
}
