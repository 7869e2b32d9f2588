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
// aggregation folds each argument by group id with one loop per batch.
// There is no row form. A selection vector lists distinct rows of its
// batch in increasing order, and an Expr stores each value at its row's
// own index, so one selection stays valid across every step of a
// pipeline. Intermediate vectors are the worker's (engine.Worker.PushCol,
// PushI32), taken and returned like a stack within one call. A join
// residual is a Pred over its candidate pairs.
//
// NULL compares false: every comparison and string predicate drops a row
// whose operand is NULL. An expression over a NULL is NULL: its result's
// validity is the AND of its operands'. A computed column stores a NULL as
// zero, and an aggregate skips it.
package op

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// Expr is a scalar expression over the rows of a batch.
type Expr interface {
	// Vec evaluates the expression at the rows of sel and returns a column
	// that holds each value at its row's own index: one of b's columns (Col
	// is a zero-copy operand) or dst, whose slice for dst.Type has room for
	// every row of b. When the column is Nullable, its Valid marks the
	// NULLs among the rows of sel, whose values are unspecified. Vec
	// panics when the expression has no values of dst.Type. Intermediate
	// vectors come from w's scratch stack and are popped before Vec
	// returns.
	Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) *storage.Column
}

// Pred is a boolean over the rows of a batch. NULL compares false: a
// comparison or string predicate drops a row whose operand is NULL. Not
// and Or negate and combine that collapsed boolean, so Not(I64LT(c, 5))
// holds on a row where c is NULL.
type Pred interface {
	// Select writes the rows of sel that satisfy the predicate to out, in
	// order, and returns them. out needs capacity for len(sel) rows and
	// may alias sel. Intermediate vectors come from w's scratch stack and
	// are popped before Select returns.
	Select(w *engine.Worker, b *storage.Batch, sel, out []int32) []int32
}

// isI64 reports whether values of type t live in Column.I64 (int64,
// decimal, date).
func isI64(t storage.Type) bool { return t != storage.TFloat64 && t != storage.TString }

// sameRep reports whether columns of types a and b keep their values in
// the same slice.
func sameRep(a, b storage.Type) bool { return a == b || isI64(a) && isI64(b) }

// --- expressions ---

// mustFill panics unless an expression of e's kind can fill a column of
// type t (ok): a planner bug, such as a decimal declared as a float. Every
// Expr is a pointer, so passing one here does not allocate.
func mustFill(e Expr, t storage.Type, ok bool) {
	if !ok {
		panic(fmt.Sprintf("op: expression %T %+v has no %v values", e, e, t))
	}
}

// validity returns dst's validity vector with a slot for every row dst
// has room for, keeping what it held, and marks dst nullable.
func validity(dst *storage.Column) []bool {
	n := dst.Len()
	if cap(dst.Valid) < n {
		dst.Valid = append(dst.Valid[:cap(dst.Valid)], make([]bool, n-cap(dst.Valid))...)
	}
	dst.Valid = dst.Valid[:n]
	dst.Nullable = true
	return dst.Valid
}

// validAnd makes dst's validity at sel the AND of x's and y's (y may be
// nil): dst is nullable exactly when an operand is.
func validAnd(dst *storage.Column, sel []int32, x, y *storage.Column) {
	switch {
	case y == nil || !y.Nullable:
		y = x
	case !x.Nullable:
		x = y
	}
	if !x.Nullable {
		dst.Nullable = false
		return
	}
	v, xv, yv := validity(dst), x.Valid, y.Valid
	for _, i := range sel {
		v[i] = xv[i] && yv[i]
	}
}

type colExpr struct{ c int }

// Col returns the value of column c (any type). Its batch form is the
// column itself.
func Col(c int) Expr { return &colExpr{c} }

func (e *colExpr) Vec(_ *engine.Worker, b *storage.Batch, _ []int32, dst *storage.Column) *storage.Column {
	src := b.Cols[e.c]
	mustFill(e, dst.Type, sameRep(src.Type, dst.Type))
	return src
}

type constI struct{ v int64 }

// ConstI returns a constant integer-backed value.
func ConstI(v int64) Expr { return &constI{v} }

func (c *constI) Vec(_ *engine.Worker, _ *storage.Batch, sel []int32, dst *storage.Column) *storage.Column {
	mustFill(c, dst.Type, isI64(dst.Type))
	d, v := dst.I64, c.v
	for _, i := range sel {
		d[i] = v
	}
	dst.Nullable = false
	return dst
}

// operand evaluates an integer-backed operand of a kernel at sel into a
// scratch column of n values pushed on w's stack, or returns the input
// column a Col names. The caller pops the scratch column (w.PopCol) once
// it has used the values.
func operand(w *engine.Worker, b *storage.Batch, sel []int32, e Expr, n int) *storage.Column {
	return e.Vec(w, b, sel, w.PushCol(storage.TInt64, n))
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

func (e *decConst) Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) *storage.Column {
	mustFill(e, dst.Type, isI64(dst.Type))
	xc := operand(w, b, sel, e.e, len(dst.I64))
	x, d, c := xc.I64, dst.I64, e.c
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
	validAnd(dst, sel, xc, nil)
	w.PopCol()
	return dst
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

func (e *decPair) Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) *storage.Column {
	mustFill(e, dst.Type, isI64(dst.Type))
	d := dst.I64
	xc, yc := operand(w, b, sel, e.a, len(d)), operand(w, b, sel, e.b, len(d))
	x, y := xc.I64, yc.I64
	switch e.op {
	case mulDecOp:
		for _, i := range sel {
			d[i] = x[i] * y[i] / 100
		}
		validAnd(dst, sel, xc, yc)
	case subDecOp:
		for _, i := range sel {
			d[i] = x[i] - y[i]
		}
		validAnd(dst, sel, xc, yc)
	default:
		v, s := validity(dst), e.scale
		for _, i := range sel {
			if v[i] = y[i] != 0 && !xc.IsNull(int(i)) && !yc.IsNull(int(i)); v[i] {
				d[i] = x[i] * s / y[i]
			}
		}
	}
	w.PopCol()
	w.PopCol()
	return dst
}

type yearExpr struct{ c int }

// Year extracts the year of a date column.
func Year(c int) Expr { return &yearExpr{c} }

func (e *yearExpr) Vec(_ *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) *storage.Column {
	mustFill(e, dst.Type, isI64(dst.Type))
	src := b.Cols[e.c]
	days, d := src.I64, dst.I64
	for _, i := range sel {
		d[i] = int64(storage.DateYear(days[i]))
	}
	validAnd(dst, sel, src, nil)
	return dst
}

type caseWhen struct {
	pred      Pred
	then, els Expr
}

// CaseWhen returns thenE when pred holds, elseE otherwise. Its batch form
// splits the selection by pred and evaluates each branch at its part, each
// with its own validity.
func CaseWhen(pred Pred, thenE, elseE Expr) Expr { return &caseWhen{pred, thenE, elseE} }

func (e *caseWhen) Vec(w *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) *storage.Column {
	yes := e.pred.Select(w, b, sel, w.PushI32(len(sel)))
	no := except(sel, yes, w.PushI32(len(sel)))
	yesNull := evalInto(w, b, yes, e.then, dst)
	noNull := evalInto(w, b, no, e.els, dst)
	dst.Nullable = yesNull || noNull
	if yesNull != noNull {
		valid := yes // the rows of the branch without NULLs
		if yesNull {
			valid = no
		}
		v := validity(dst)
		for _, i := range valid {
			v[i] = true
		}
	}
	w.PopI32(no)
	w.PopI32(yes)
	return dst
}

// evalInto evaluates e at sel into dst itself, values and validity: a
// zero-copy result is copied over at the selected rows. It reports whether
// the result is nullable.
func evalInto(w *engine.Worker, b *storage.Batch, sel []int32, e Expr, dst *storage.Column) bool {
	res := e.Vec(w, b, sel, dst)
	if res != dst {
		copyAt(dst, res, sel)
	}
	return res.Nullable
}

// except writes the rows of sel that are not in sub, a subsequence of
// sel, to out, in order, and returns them. out needs capacity for len(sel)
// rows and may alias sel.
func except(sel, sub, out []int32) []int32 {
	out = out[:len(sel)]
	j, k := 0, 0
	for _, i := range sel {
		if j < len(sub) && sub[j] == i {
			j++
			continue
		}
		out[k] = i
		k++
	}
	return out[:k]
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

func (e *substrExpr) Vec(_ *engine.Worker, b *storage.Batch, sel []int32, dst *storage.Column) *storage.Column {
	mustFill(e, dst.Type, dst.Type == storage.TString)
	src := b.Cols[e.c]
	strs, d := src.Str, dst.Str
	for _, i := range sel {
		d[i] = e.cut(strs[i])
	}
	validAnd(dst, sel, src, nil)
	return dst
}

// --- predicates ---

// dropNulls removes from rows, in place, the rows at which c is NULL: the
// last step of every comparison and string predicate.
func dropNulls(c *storage.Column, rows []int32) []int32 {
	if !c.Nullable {
		return rows
	}
	k := 0
	for _, i := range rows {
		if c.Valid[i] {
			rows[k] = i
			k++
		}
	}
	return rows[:k]
}

type andPred []Pred

// And combines predicates conjunctively. Its batch form runs each
// predicate's Select over the survivors of the one before.
func And(ps ...Pred) Pred { return andPred(ps) }

func (a andPred) Select(w *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	if len(a) == 0 {
		return append(out[:0], sel...)
	}
	for _, p := range a {
		if sel = p.Select(w, b, sel, out); len(sel) == 0 {
			break
		}
	}
	return sel
}

type orPred []Pred

// Or combines predicates disjunctively. Its batch form runs each
// predicate's Select over the rows no predicate before it accepted and
// selects the rows of sel that are not left over at the end.
func Or(ps ...Pred) Pred { return orPred(ps) }

func (o orPred) Select(w *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	rest := append(w.PushI32(len(sel)), sel...)
	hit := w.PushI32(len(sel))
	for _, p := range o {
		if len(rest) == 0 {
			break
		}
		hit = p.Select(w, b, rest, hit)
		rest = except(rest, hit, rest)
	}
	out = except(sel, rest, out)
	w.PopI32(hit)
	w.PopI32(rest)
	return out
}

type notPred struct{ p Pred }

// Not negates a predicate. Its batch form takes the rows the predicate
// selects out of sel.
func Not(p Pred) Pred { return &notPred{p} }

func (n *notPred) Select(w *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	yes := n.p.Select(w, b, sel, w.PushI32(len(sel)))
	out = except(sel, yes, out)
	w.PopI32(yes)
	return out
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

func (p *i64Range) Select(_ *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	if p.hi < p.lo {
		return out[:0]
	}
	// lo ≤ v ≤ hi as one unsigned comparison: v − lo wraps past hi − lo
	// for every v below lo.
	col := b.Cols[p.c]
	vs, lo, span := col.I64, p.lo, uint64(p.hi-p.lo)
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if uint64(vs[i]-lo) <= span {
			k++
		}
	}
	return dropNulls(col, out[:k])
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

// Select evaluates both operands at sel, a column zero-copy and a computed
// operand into worker scratch, and compares them in one loop.
func (p *exprCmp) Select(w *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	xc, yc := operand(w, b, sel, p.a, b.Rows()), operand(w, b, sel, p.b, b.Rows())
	xs, ys := xc.I64, yc.I64
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if p.holds(xs[i], ys[i]) {
			k++
		}
	}
	out = dropNulls(yc, dropNulls(xc, out[:k]))
	w.PopCol()
	w.PopCol()
	return out
}

type i64In struct {
	c  int
	vs []int64
}

// I64In holds when an int64-backed column is one of vs. Like StrIn and
// StrPrefixIn it scans the list linearly: the queries' IN lists hold at
// most eight values.
func I64In(c int, vs ...int64) Pred { return &i64In{c, slices.Clone(vs)} }

func (p *i64In) Select(_ *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	col := b.Cols[p.c]
	vs, list := col.I64, p.vs
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if slices.Contains(list, vs[i]) {
			k++
		}
	}
	return dropNulls(col, out[:k])
}

// strPred is a predicate over a string column; match decides one value.
// Its batch form is one loop over the column's strings.
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

func (p *strPred) Select(_ *engine.Worker, b *storage.Batch, sel, out []int32) []int32 {
	col := b.Cols[p.c]
	strs, match := col.Str, p.match
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if match(strs[i]) {
			k++
		}
	}
	return dropNulls(col, out[:k])
}
