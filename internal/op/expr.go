// Package op implements the relational operators of the execution engine:
// sources, filters, projections, hash joins (inner/semi/anti/outer),
// hash-based grouping/aggregation, the groupjoin of Figure 6, and
// sort/top-k — all designed so that any number of morsel workers can
// process the same pipeline job in parallel (§3.2).
package op

import (
	"strings"

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

// Expr evaluates a scalar over one row of a batch.
type Expr func(b *storage.Batch, i int) Val

// Pred evaluates a boolean over one row of a batch. NULL comparisons
// evaluate to false, per SQL three-valued logic collapsing to rejection.
type Pred func(b *storage.Batch, i int) bool

// Col returns the value of column c (any type).
func Col(c int) Expr {
	return func(b *storage.Batch, i int) Val {
		col := b.Cols[c]
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
}

// ConstI returns a constant integer-backed value.
func ConstI(v int64) Expr { return func(*storage.Batch, int) Val { return Val{I: v} } }

// MulDec multiplies two decimal(2) expressions, keeping two decimals
// (truncating, like fixed-point engines do).
func MulDec(a, e Expr) Expr {
	return func(b *storage.Batch, i int) Val {
		x, y := a(b, i), e(b, i)
		if x.Null || y.Null {
			return Val{Null: true}
		}
		return Val{I: x.I * y.I / 100}
	}
}

// SubDecConst computes (c − expr) for decimals, e.g. (1 − l_discount).
func SubDecConst(c int64, e Expr) Expr {
	return func(b *storage.Batch, i int) Val {
		v := e(b, i)
		if v.Null {
			return v
		}
		return Val{I: c - v.I}
	}
}

// AddDecConst computes (c + expr) for decimals, e.g. (1 + l_tax).
func AddDecConst(c int64, e Expr) Expr {
	return func(b *storage.Batch, i int) Val {
		v := e(b, i)
		if v.Null {
			return v
		}
		return Val{I: c + v.I}
	}
}

// Year extracts the year of a date column.
func Year(c int) Expr {
	return func(b *storage.Batch, i int) Val {
		return Val{I: int64(storage.DateYear(b.Cols[c].I64[i]))}
	}
}

// CaseWhen returns thenE when pred holds, elseE otherwise.
func CaseWhen(pred Pred, thenE, elseE Expr) Expr {
	return func(b *storage.Batch, i int) Val {
		if pred(b, i) {
			return thenE(b, i)
		}
		return elseE(b, i)
	}
}

// --- predicates ---

// And combines predicates conjunctively.
func And(ps ...Pred) Pred {
	return func(b *storage.Batch, i int) bool {
		for _, p := range ps {
			if !p(b, i) {
				return false
			}
		}
		return true
	}
}

// Or combines predicates disjunctively.
func Or(ps ...Pred) Pred {
	return func(b *storage.Batch, i int) bool {
		for _, p := range ps {
			if p(b, i) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Pred) Pred {
	return func(b *storage.Batch, i int) bool { return !p(b, i) }
}

// I64Between holds when lo ≤ col ≤ hi (int64-backed columns).
func I64Between(c int, lo, hi int64) Pred {
	return func(b *storage.Batch, i int) bool {
		v := b.Cols[c].I64[i]
		return v >= lo && v <= hi
	}
}

// I64LT holds when col < v.
func I64LT(c int, v int64) Pred {
	return func(b *storage.Batch, i int) bool { return b.Cols[c].I64[i] < v }
}

// I64GE holds when col ≥ v.
func I64GE(c int, v int64) Pred {
	return func(b *storage.Batch, i int) bool { return b.Cols[c].I64[i] >= v }
}

// I64GT holds when col > v.
func I64GT(c int, v int64) Pred {
	return func(b *storage.Batch, i int) bool { return b.Cols[c].I64[i] > v }
}

// I64LE holds when col ≤ v.
func I64LE(c int, v int64) Pred {
	return func(b *storage.Batch, i int) bool { return b.Cols[c].I64[i] <= v }
}

// I64EQ holds when col = v.
func I64EQ(c int, v int64) Pred {
	return func(b *storage.Batch, i int) bool { return b.Cols[c].I64[i] == v }
}

// ColLT holds when col a < col b (int64-backed).
func ColLT(a, b int) Pred {
	return func(batch *storage.Batch, i int) bool {
		return batch.Cols[a].I64[i] < batch.Cols[b].I64[i]
	}
}

// StrEQ holds when a string column equals v.
func StrEQ(c int, v string) Pred {
	return func(b *storage.Batch, i int) bool { return b.Cols[c].Str[i] == v }
}

// StrIn holds when a string column is one of vs.
func StrIn(c int, vs ...string) Pred {
	set := make(map[string]struct{}, len(vs))
	for _, v := range vs {
		set[v] = struct{}{}
	}
	return func(b *storage.Batch, i int) bool {
		_, ok := set[b.Cols[c].Str[i]]
		return ok
	}
}

// StrPrefix holds for LIKE 'p%'.
func StrPrefix(c int, p string) Pred {
	return func(b *storage.Batch, i int) bool { return strings.HasPrefix(b.Cols[c].Str[i], p) }
}

// StrContains holds for LIKE '%p%'.
func StrContains(c int, p string) Pred {
	return func(b *storage.Batch, i int) bool { return strings.Contains(b.Cols[c].Str[i], p) }
}

// Like matches a SQL LIKE pattern with % wildcards (no '_' support:
// TPC-H does not use it). The pattern is compiled here, once per
// predicate, not per row.
func Like(c int, pattern string) Pred {
	like := storage.CompileLike(pattern)
	return func(b *storage.Batch, i int) bool { return like.Match(b.Cols[c].Str[i]) }
}

// DivDecConst divides a decimal expression by an integer constant
// (truncating), e.g. sum(l_extendedprice) / 7.
func DivDecConst(e Expr, c int64) Expr {
	return func(b *storage.Batch, i int) Val {
		v := e(b, i)
		if v.Null {
			return v
		}
		return Val{I: v.I / c}
	}
}

// Ratio computes a×scale/b over two integer-backed expressions
// (truncating). With scale=10000 the result of two decimal sums is a
// percentage in hundredths (Q14); with scale=100 it is a plain two-decimal
// ratio (Q8).
func Ratio(a, b Expr, scale int64) Expr {
	return func(batch *storage.Batch, i int) Val {
		x, y := a(batch, i), b(batch, i)
		if x.Null || y.Null || y.I == 0 {
			return Val{Null: true}
		}
		return Val{I: x.I * scale / y.I}
	}
}

// Substr returns s[from:from+n] of a string column (byte offsets; TPC-H
// only slices ASCII phone numbers).
func Substr(c int, from, n int) Expr {
	return func(b *storage.Batch, i int) Val {
		s := b.Cols[c].Str[i]
		if from >= len(s) {
			return Val{S: ""}
		}
		end := from + n
		if end > len(s) {
			end = len(s)
		}
		return Val{S: s[from:end]}
	}
}

// StrPrefixIn holds when the first n bytes of a string column are one of
// the given values (Q22 country codes).
func StrPrefixIn(c int, n int, vs ...string) Pred {
	set := make(map[string]struct{}, len(vs))
	for _, v := range vs {
		set[v] = struct{}{}
	}
	return func(b *storage.Batch, i int) bool {
		s := b.Cols[c].Str[i]
		if len(s) < n {
			return false
		}
		_, ok := set[s[:n]]
		return ok
	}
}
