// Package op implements the relational operators of the execution engine:
// sources, filters, projections, hash joins (inner/semi/anti/outer),
// hash-based grouping/aggregation, the groupjoin of Figure 6, and
// sort/top-k — all designed so that any number of morsel workers can
// process the same pipeline job in parallel (§3.2).
//
// Predicates and expressions run a vector at a time, the nearest Go gets
// to the paper's compiled pipelines (MonetDB/X100's primitives): a Pred
// narrows a selection vector with one typed loop per batch, an Expr
// evaluates at the selected rows with one typed loop per batch, and an
// aggregation folds each argument by group id with one loop per batch. A
// selection vector lists distinct rows of its batch in increasing order,
// and an Expr stores each value at its row's own index, so one selection
// stays valid across every step of a pipeline. Intermediate vectors are
// the worker's (engine.Worker.PushI64, PushI32), taken and returned like a
// stack within one call. A join residual is a Pred over its candidate
// pairs. The row form, Eval, serves a batch in which a column a kernel
// reads is nullable, and a comparison of computed operands.
//
// NULL compares false: every comparison and string predicate rejects a
// row whose column is NULL, in both forms. An expression over a NULL is
// NULL; a computed column stores it as zero and an aggregate skips it.
package op

import (
	"math"
	"slices"
	"strings"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// Val is a scalar expression value. Exactly one of I/F/S is meaningful,
// according to the expression's declared type; Null marks SQL NULL.
type Val struct {
	I    int64
	F    float64
	S    string
	Null bool
}

// Expr is a scalar expression over the rows of a batch.
type Expr interface {
	// Eval evaluates the expression at row i of b.
	Eval(b *storage.Batch, i int) Val
	// Vec is the batch form. It evaluates the expression at the rows of
	// sel and returns a column that holds each value at its row's own
	// index: one of b's columns (Col is a zero-copy operand) or dst, whose
	// slice for dst.Type has room for every row of b. ok is false when the
	// expression may be NULL over b, or has no kernel for dst.Type; the
	// caller then evaluates Eval at each row of sel. Intermediate vectors
	// come from w's scratch stack and are popped before Vec returns.
	Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) (res *storage.Column, ok bool)
}

// Pred is a boolean over the rows of a batch. NULL compares false: a
// comparison or string predicate rejects a row whose column is NULL. Not
// and Or negate and combine that collapsed boolean, so Not(I64LT(c, 5))
// holds on a row where c is NULL.
type Pred interface {
	// Eval reports whether row i of b satisfies the predicate.
	Eval(b *storage.Batch, i int) bool
	// Select is the batch form: it writes the rows of sel that satisfy the
	// predicate to out, in order, and returns them. out needs capacity for
	// len(sel) rows and may alias sel.
	Select(b *storage.Batch, sel, out []int32) []int32
}

// isI64 reports whether values of type t live in Column.I64 (int64,
// decimal, date).
func isI64(t storage.Type) bool { return t != storage.TFloat64 && t != storage.TString }

// sameRep reports whether columns of types a and b keep their values in
// the same slice.
func sameRep(a, b storage.Type) bool { return a == b || isI64(a) && isI64(b) }

// --- expressions ---

type colExpr struct{ c int }

// Col returns the value of column c (any type). Its batch form is the
// column itself.
func Col(c int) Expr { return &colExpr{c} }

func (e *colExpr) Eval(b *storage.Batch, i int) Val {
	col := b.Cols[e.c]
	if col.IsNull(i) {
		return Val{Null: true}
	}
	switch col.Type {
	case storage.TFloat64:
		return Val{F: col.F64[i]}
	case storage.TString:
		return Val{S: col.Str[i]}
	default:
		return Val{I: col.I64[i]}
	}
}

func (e *colExpr) Vec(_ *engine.Worker, b *storage.Batch, _ []int32, dst *storage.Column) (*storage.Column, bool) {
	src := b.Cols[e.c]
	return src, !src.Nullable && sameRep(src.Type, dst.Type)
}

type constI int64

// ConstI returns a constant integer-backed value.
func ConstI(v int64) Expr { return constI(v) }

func (c constI) Eval(*storage.Batch, int) Val { return Val{I: int64(c)} }

func (c constI) Vec(_ *engine.Worker, _ *storage.Batch, sel []int32, dst *storage.Column) (*storage.Column, bool) {
	if !isI64(dst.Type) {
		return nil, false
	}
	d := dst.I64
	for _, i := range sel {
		d[i] = int64(c)
	}
	return dst, true
}

// operand evaluates an integer-backed operand of a kernel at sel into a
// scratch vector of n values pushed on w's stack. The caller pops it
// (w.PopI64) once it has used the values, whatever ok says.
func operand(w *engine.Worker, b *storage.Batch, sel []int32, e Expr, n int) ([]int64, bool) {
	res, ok := e.Vec(w, b, sel, w.PushI64(n))
	if !ok {
		return nil, false
	}
	return res.I64, true
}

type decConstOp uint8

const (
	subFromConst decConstOp = iota
	addConst
	divByConst
)

// decConst is one decimal operand and a constant: c − e, c + e or e / c.
type decConst struct {
	op decConstOp
	c  int64
	e  Expr
}

// SubDecConst computes (c − expr) for decimals, e.g. (1 − l_discount).
func SubDecConst(c int64, e Expr) Expr { return &decConst{subFromConst, c, e} }

// AddDecConst computes (c + expr) for decimals, e.g. (1 + l_tax).
func AddDecConst(c int64, e Expr) Expr { return &decConst{addConst, c, e} }

// DivDecConst divides a decimal expression by an integer constant
// (truncating), e.g. sum(l_extendedprice) / 7.
func DivDecConst(e Expr, c int64) Expr { return &decConst{divByConst, c, e} }

func (e *decConst) Eval(b *storage.Batch, i int) Val {
	v := e.e.Eval(b, i)
	if v.Null {
		return v
	}
	switch e.op {
	case subFromConst:
		return Val{I: e.c - v.I}
	case addConst:
		return Val{I: e.c + v.I}
	default:
		return Val{I: v.I / e.c}
	}
}

func (e *decConst) Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) (*storage.Column, bool) {
	if !isI64(dst.Type) {
		return nil, false
	}
	x, ok := operand(w, b, sel, e.e, len(dst.I64))
	if ok {
		d, c := dst.I64, e.c
		switch e.op {
		case subFromConst:
			for _, i := range sel {
				d[i] = c - x[i]
			}
		case addConst:
			for _, i := range sel {
				d[i] = c + x[i]
			}
		default:
			for _, i := range sel {
				d[i] = x[i] / c
			}
		}
	}
	w.PopI64()
	return dst, ok
}

type decPairOp uint8

const (
	mulDecOp decPairOp = iota
	subDecOp
	ratioOp
)

// decPair is two decimal operands: a × b, a − b or a × scale / b.
type decPair struct {
	op    decPairOp
	a, b  Expr
	scale int64
}

// MulDec multiplies two decimal(2) expressions, keeping two decimals
// (truncating, like fixed-point engines do).
func MulDec(a, e Expr) Expr { return &decPair{op: mulDecOp, a: a, b: e} }

// SubDec subtracts two decimal expressions, e.g. Q9's revenue − cost.
func SubDec(a, e Expr) Expr { return &decPair{op: subDecOp, a: a, b: e} }

// Ratio computes a×scale/b over two integer-backed expressions
// (truncating); a zero b makes it NULL. With scale=10000 the result of two
// decimal sums is a percentage in hundredths (Q14); with scale=100 it is a
// plain two-decimal ratio (Q8).
func Ratio(a, b Expr, scale int64) Expr { return &decPair{op: ratioOp, a: a, b: b, scale: scale} }

func (e *decPair) Eval(b *storage.Batch, i int) Val {
	x, y := e.a.Eval(b, i), e.b.Eval(b, i)
	if x.Null || y.Null || e.op == ratioOp && y.I == 0 {
		return Val{Null: true}
	}
	switch e.op {
	case mulDecOp:
		return Val{I: x.I * y.I / 100}
	case subDecOp:
		return Val{I: x.I - y.I}
	default:
		return Val{I: x.I * e.scale / y.I}
	}
}

func (e *decPair) Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) (*storage.Column, bool) {
	if !isI64(dst.Type) {
		return nil, false
	}
	d := dst.I64
	x, okx := operand(w, b, sel, e.a, len(d))
	y, oky := operand(w, b, sel, e.b, len(d))
	ok := okx && oky
	if ok {
		switch e.op {
		case mulDecOp:
			for _, i := range sel {
				d[i] = x[i] * y[i] / 100
			}
		case subDecOp:
			for _, i := range sel {
				d[i] = x[i] - y[i]
			}
		default:
			s := e.scale
			for _, i := range sel {
				if y[i] == 0 {
					ok = false // a NULL: the caller takes the row form
					break
				}
				d[i] = x[i] * s / y[i]
			}
		}
	}
	w.PopI64()
	w.PopI64()
	return dst, ok
}

type yearExpr struct{ c int }

// Year extracts the year of a date column.
func Year(c int) Expr { return &yearExpr{c} }

func (e *yearExpr) Eval(b *storage.Batch, i int) Val {
	col := b.Cols[e.c]
	if col.IsNull(i) {
		return Val{Null: true}
	}
	return Val{I: int64(storage.DateYear(col.I64[i]))}
}

func (e *yearExpr) Vec(_ *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) (*storage.Column, bool) {
	src := b.Cols[e.c]
	if src.Nullable || !isI64(dst.Type) {
		return nil, false
	}
	days, d := src.I64, dst.I64
	for _, i := range sel {
		d[i] = int64(storage.DateYear(days[i]))
	}
	return dst, true
}

type caseWhen struct {
	pred      Pred
	then, els Expr
}

// CaseWhen returns thenE when pred holds, elseE otherwise. Its batch form
// splits the selection by pred and evaluates each branch at its part.
func CaseWhen(pred Pred, thenE, elseE Expr) Expr { return &caseWhen{pred, thenE, elseE} }

func (e *caseWhen) Eval(b *storage.Batch, i int) Val {
	if e.pred.Eval(b, i) {
		return e.then.Eval(b, i)
	}
	return e.els.Eval(b, i)
}

func (e *caseWhen) Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) (*storage.Column, bool) {
	yes := e.pred.Select(b, sel, w.PushI32(len(sel)))
	no := w.PushI32(len(sel))
	j := 0
	for _, i := range sel {
		if j < len(yes) && yes[j] == i {
			j++
		} else {
			no = append(no, i)
		}
	}
	ok := evalInto(w, b, yes, e.then, dst) && evalInto(w, b, no, e.els, dst)
	w.PopI32(no)
	w.PopI32(yes)
	return dst, ok
}

// evalInto evaluates e at sel into dst itself: a zero-copy result is copied
// over at the selected rows.
func evalInto(w *engine.Worker, b *storage.Batch, sel []int32, e Expr, dst *storage.Column) bool {
	res, ok := e.Vec(w, b, sel, dst)
	if ok && res != dst {
		copyAt(dst, res, sel)
	}
	return ok
}

type substrExpr struct{ c, from, n int }

// Substr returns s[from:from+n] of a string column (byte offsets; TPC-H
// only slices ASCII phone numbers).
func Substr(c int, from, n int) Expr { return &substrExpr{c, from, n} }

func (e *substrExpr) cut(s string) string {
	if e.from >= len(s) {
		return ""
	}
	return s[e.from:min(e.from+e.n, len(s))]
}

func (e *substrExpr) Eval(b *storage.Batch, i int) Val {
	col := b.Cols[e.c]
	if col.IsNull(i) {
		return Val{Null: true}
	}
	return Val{S: e.cut(col.Str[i])}
}

func (e *substrExpr) Vec(_ *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) (*storage.Column, bool) {
	src := b.Cols[e.c]
	if src.Nullable || dst.Type != storage.TString {
		return nil, false
	}
	strs, d := src.Str, dst.Str
	for _, i := range sel {
		d[i] = e.cut(strs[i])
	}
	return dst, true
}

// --- predicates ---

// selectRows is Select's row form: predicates without a kernel (Or, Not)
// use it, and so does a kernel over a nullable column.
func selectRows(p Pred, b *storage.Batch, sel, out []int32) []int32 {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		if p.Eval(b, int(i)) {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

type andPred []Pred

// And combines predicates conjunctively. Its batch form runs each
// predicate's Select over the survivors of the one before.
func And(ps ...Pred) Pred { return andPred(ps) }

func (a andPred) Eval(b *storage.Batch, i int) bool {
	for _, p := range a {
		if !p.Eval(b, i) {
			return false
		}
	}
	return true
}

func (a andPred) Select(b *storage.Batch, sel, out []int32) []int32 {
	if len(a) == 0 {
		return append(out[:0], sel...)
	}
	for _, p := range a {
		if sel = p.Select(b, sel, out); len(sel) == 0 {
			break
		}
	}
	return sel
}

type orPred []Pred

// Or combines predicates disjunctively (a row at a time in both forms).
func Or(ps ...Pred) Pred { return orPred(ps) }

func (o orPred) Eval(b *storage.Batch, i int) bool {
	for _, p := range o {
		if p.Eval(b, i) {
			return true
		}
	}
	return false
}

func (o orPred) Select(b *storage.Batch, sel, out []int32) []int32 {
	return selectRows(o, b, sel, out)
}

type notPred struct{ p Pred }

// Not negates a predicate (a row at a time in both forms).
func Not(p Pred) Pred { return &notPred{p} }

func (n *notPred) Eval(b *storage.Batch, i int) bool { return !n.p.Eval(b, i) }

func (n *notPred) Select(b *storage.Batch, sel, out []int32) []int32 {
	return selectRows(n, b, sel, out)
}

// i64Range holds when lo ≤ col ≤ hi: every comparison of an int64-backed
// column with a constant is one. A range with hi < lo holds nowhere.
type i64Range struct {
	c      int
	lo, hi int64
}

// I64Between holds when lo ≤ col ≤ hi (int64-backed columns).
func I64Between(c int, lo, hi int64) Pred { return &i64Range{c, lo, hi} }

// I64LT holds when col < v.
func I64LT(c int, v int64) Pred {
	if v == math.MinInt64 {
		return &i64Range{c, 1, 0}
	}
	return &i64Range{c, math.MinInt64, v - 1}
}

// I64LE holds when col ≤ v.
func I64LE(c int, v int64) Pred { return &i64Range{c, math.MinInt64, v} }

// I64GT holds when col > v.
func I64GT(c int, v int64) Pred {
	if v == math.MaxInt64 {
		return &i64Range{c, 1, 0}
	}
	return &i64Range{c, v + 1, math.MaxInt64}
}

// I64GE holds when col ≥ v.
func I64GE(c int, v int64) Pred { return &i64Range{c, v, math.MaxInt64} }

// I64EQ holds when col = v.
func I64EQ(c int, v int64) Pred { return &i64Range{c, v, v} }

func (p *i64Range) Eval(b *storage.Batch, i int) bool {
	col := b.Cols[p.c]
	return !col.IsNull(i) && col.I64[i] >= p.lo && col.I64[i] <= p.hi
}

func (p *i64Range) Select(b *storage.Batch, sel, out []int32) []int32 {
	col := b.Cols[p.c]
	if col.Nullable || p.hi < p.lo {
		return selectRows(p, b, sel, out)
	}
	// lo ≤ v ≤ hi as one unsigned comparison: v − lo wraps past hi − lo
	// for every v below lo.
	vs, lo, span := col.I64, p.lo, uint64(p.hi-p.lo)
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if uint64(vs[i]-lo) <= span {
			k++
		}
	}
	return out[:k]
}

type cmpOp uint8

const (
	ltOp cmpOp = iota
	neOp
	gtFracOp
)

// exprCmp compares two int64-backed expressions: a < b, a ≠ b, or
// float64(a) > float64(b)·f.
type exprCmp struct {
	op   cmpOp
	a, b Expr
	f    float64
}

// LT holds when a < b (int64-backed expressions).
func LT(a, b Expr) Pred { return &exprCmp{op: ltOp, a: a, b: b} }

// NE holds when a ≠ b (int64-backed expressions).
func NE(a, b Expr) Pred { return &exprCmp{op: neOp, a: a, b: b} }

// GTFrac holds when float64(a) > float64(b)·f: a HAVING against a fraction
// of a total (Q11), compared in float as the reference engine does.
func GTFrac(a, b Expr, f float64) Pred { return &exprCmp{op: gtFracOp, a: a, b: b, f: f} }

// ColLT holds when col a < col b (int64-backed).
func ColLT(a, b int) Pred { return LT(Col(a), Col(b)) }

func (p *exprCmp) holds(x, y int64) bool {
	switch p.op {
	case ltOp:
		return x < y
	case neOp:
		return x != y
	default:
		return float64(x) > float64(y)*p.f
	}
}

func (p *exprCmp) Eval(b *storage.Batch, i int) bool {
	x, y := p.a.Eval(b, i), p.b.Eval(b, i)
	return !x.Null && !y.Null && p.holds(x.I, y.I)
}

// Select runs one typed loop when both operands are non-nullable columns;
// a computed operand needs scratch that Select has no worker for, so it
// takes the row form, as a nullable column does.
func (p *exprCmp) Select(b *storage.Batch, sel, out []int32) []int32 {
	x, okx := p.a.(*colExpr)
	y, oky := p.b.(*colExpr)
	if !okx || !oky || b.Cols[x.c].Nullable || b.Cols[y.c].Nullable {
		return selectRows(p, b, sel, out)
	}
	xs, ys := b.Cols[x.c].I64, b.Cols[y.c].I64
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if p.holds(xs[i], ys[i]) {
			k++
		}
	}
	return out[:k]
}

type i64In struct {
	c  int
	vs []int64
}

// I64In holds when an int64-backed column is one of vs. Like StrIn and
// StrPrefixIn it scans the list linearly: the queries' IN lists hold at
// most eight values.
func I64In(c int, vs ...int64) Pred { return &i64In{c, slices.Clone(vs)} }

func (p *i64In) Eval(b *storage.Batch, i int) bool {
	col := b.Cols[p.c]
	return !col.IsNull(i) && slices.Contains(p.vs, col.I64[i])
}

func (p *i64In) Select(b *storage.Batch, sel, out []int32) []int32 {
	col := b.Cols[p.c]
	if col.Nullable {
		return selectRows(p, b, sel, out)
	}
	vs, list := col.I64, p.vs
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if slices.Contains(list, vs[i]) {
			k++
		}
	}
	return out[:k]
}

// strPred is a predicate over a string column; match decides one non-NULL
// value. Its batch form is one loop over the column's strings.
type strPred struct {
	c     int
	match func(string) bool
}

// StrEQ holds when a string column equals v.
func StrEQ(c int, v string) Pred {
	return &strPred{c, func(s string) bool { return s == v }}
}

// StrIn holds when a string column is one of vs.
func StrIn(c int, vs ...string) Pred {
	vs = slices.Clone(vs)
	return &strPred{c, func(s string) bool { return slices.Contains(vs, s) }}
}

// StrPrefix holds for LIKE 'p%'.
func StrPrefix(c int, p string) Pred {
	return &strPred{c, func(s string) bool { return strings.HasPrefix(s, p) }}
}

// StrContains holds for LIKE '%p%'.
func StrContains(c int, p string) Pred {
	return &strPred{c, func(s string) bool { return strings.Contains(s, p) }}
}

// Like matches a SQL LIKE pattern with % wildcards (no '_' support:
// TPC-H does not use it). The pattern is compiled here, once per
// predicate, not per row.
func Like(c int, pattern string) Pred { return &strPred{c, storage.CompileLike(pattern).Match} }

// StrPrefixIn holds when the first n bytes of a string column are one of
// the given values (Q22 country codes).
func StrPrefixIn(c int, n int, vs ...string) Pred {
	vs = slices.Clone(vs)
	return &strPred{c, func(s string) bool { return len(s) >= n && slices.Contains(vs, s[:n]) }}
}

func (p *strPred) Eval(b *storage.Batch, i int) bool {
	col := b.Cols[p.c]
	return !col.IsNull(i) && p.match(col.Str[i])
}

func (p *strPred) Select(b *storage.Batch, sel, out []int32) []int32 {
	col := b.Cols[p.c]
	if col.Nullable {
		return selectRows(p, b, sel, out)
	}
	strs, match := col.Str, p.match
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if match(strs[i]) {
			k++
		}
	}
	return out[:k]
}
