package op

import (
	"fmt"
	"slices"

	"hsqp/internal/storage"
)

// The row oracle: reference code the batch kernels are tested against. It
// evaluates a predicate or an expression at one row of a batch and folds
// one row into an aggregate state, applying the package's NULL rule a
// value at a time: a comparison or string predicate rejects a NULL
// operand, Not and Or combine the collapsed boolean, an expression over a
// NULL is NULL, and an aggregate skips a NULL argument.

// rowVal is an expression's value at one row. Exactly one of I/F/S is
// meaningful, according to the expression's type; Null marks SQL NULL.
type rowVal struct {
	I    int64
	F    float64
	S    string
	Null bool
}

// colVal reads row i of c into the field c's type selects.
func colVal(c *storage.Column, i int) rowVal {
	switch {
	case c.IsNull(i):
		return rowVal{Null: true}
	case c.Type == storage.TFloat64:
		return rowVal{F: c.F64[i]}
	case c.Type == storage.TString:
		return rowVal{S: c.Str[i]}
	default:
		return rowVal{I: c.I64[i]}
	}
}

// evalExpr evaluates e at row i of b.
func evalExpr(e Expr, b *storage.Batch, i int) rowVal {
	switch e := e.(type) {
	case *colExpr:
		return colVal(b.Cols[e.c], i)
	case *constI:
		return rowVal{I: e.v}
	case *decConst:
		v := evalExpr(e.e, b, i)
		switch {
		case v.Null:
			return v
		case e.op == subFromConst:
			return rowVal{I: e.c - v.I}
		case e.op == addConst:
			return rowVal{I: e.c + v.I}
		default:
			return rowVal{I: v.I / e.c}
		}
	case *decPair:
		x, y := evalExpr(e.a, b, i), evalExpr(e.b, b, i)
		switch {
		case x.Null || y.Null || e.op == ratioOp && y.I == 0:
			return rowVal{Null: true}
		case e.op == mulDecOp:
			return rowVal{I: x.I * y.I / 100}
		case e.op == subDecOp:
			return rowVal{I: x.I - y.I}
		default:
			return rowVal{I: x.I * e.scale / y.I}
		}
	case *yearExpr:
		v := colVal(b.Cols[e.c], i)
		if v.Null {
			return v
		}
		return rowVal{I: int64(storage.DateYear(v.I))}
	case *caseWhen:
		if evalPred(e.pred, b, i) {
			return evalExpr(e.then, b, i)
		}
		return evalExpr(e.els, b, i)
	case *substrExpr:
		v := colVal(b.Cols[e.c], i)
		if v.Null {
			return v
		}
		return rowVal{S: e.cut(v.S)}
	}
	panic(fmt.Sprintf("row oracle: no row form for %T", e))
}

// evalPred reports whether row i of b satisfies p.
func evalPred(p Pred, b *storage.Batch, i int) bool {
	switch p := p.(type) {
	case andPred:
		for _, q := range p {
			if !evalPred(q, b, i) {
				return false
			}
		}
		return true
	case orPred:
		for _, q := range p {
			if evalPred(q, b, i) {
				return true
			}
		}
		return false
	case *notPred:
		return !evalPred(p.p, b, i)
	case *i64Range:
		v := colVal(b.Cols[p.c], i)
		return !v.Null && v.I >= p.lo && v.I <= p.hi
	case *exprCmp:
		x, y := evalExpr(p.a, b, i), evalExpr(p.b, b, i)
		return !x.Null && !y.Null && p.holds(x.I, y.I)
	case *i64In:
		v := colVal(b.Cols[p.c], i)
		return !v.Null && slices.Contains(p.vs, v.I)
	case *strPred:
		v := colVal(b.Cols[p.c], i)
		return !v.Null && p.match(v.S)
	}
	panic(fmt.Sprintf("row oracle: no row form for %T", p))
}

// updateRow folds row i of b into one aggregate state. Sum counts its rows
// like Avg does, which appendFinal ignores; AvgMerge skips a row whose sum
// or count is NULL.
func updateRow(st *aggState, spec *AggSpec, b *storage.Batch, i int) {
	var v rowVal
	if spec.Arg != nil {
		if v = evalExpr(spec.Arg, b, i); v.Null {
			return
		}
	}
	switch spec.Kind {
	case Count:
		st.cnt++
	case Sum, Avg, AvgMerge:
		n := int64(1)
		if spec.Kind == AvgMerge {
			c := evalExpr(spec.Arg2, b, i)
			if c.Null {
				return
			}
			n = c.I
		}
		if spec.ArgType == storage.TFloat64 {
			st.f += v.F
		} else {
			st.i += v.I
		}
		st.cnt += n
		st.set = true
	case Min, Max:
		if !st.set {
			st.i, st.f, st.s, st.set = v.I, v.F, v.S, true
			return
		}
		less := false
		switch spec.ArgType {
		case storage.TFloat64:
			less = v.F < st.f
		case storage.TString:
			less = v.S < st.s
		default:
			less = v.I < st.i
		}
		if (spec.Kind == Min) == less {
			st.i, st.f, st.s = v.I, v.F, v.S
		}
	}
}
