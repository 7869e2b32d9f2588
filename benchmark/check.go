package main

import (
	"fmt"
	"strconv"

	"hsqp/internal/ref"
	"hsqp/internal/storage"
)

// limitSortKeys lists, for the TPC-H statements with LIMIT, the output
// columns the ORDER BY fully determines. Rows tied on them may straddle
// the cut differently in the engine and in the reference, so only these
// columns are compared, positionally (the rule of
// internal/queries/queries_test.go).
var limitSortKeys = map[int][]int{
	2:  {0},
	3:  {1, 2},
	10: {2},
	18: {4, 3},
	21: {1},
}

// digest summarises a result set so that two results the conformance rule
// calls equal have equal digests: the row count plus, for a LIMIT
// statement, an order-sensitive hash of the sort-key columns, and
// otherwise an order-insensitive (multiset) hash of whole rows.
type digest struct {
	rows int
	hash uint64
}

// digester accumulates one result's digest row by row. It reuses one
// buffer so that checking a result allocates nothing per row: the check
// runs inside the interval the allocation metrics cover.
type digester struct {
	keys    []int // nil: whole row, multiset
	limited bool
	d       digest
	buf     []byte
}

func newDigester(q int) *digester {
	keys, limited := limitSortKeys[q]
	return &digester{keys: keys, limited: limited}
}

func (g *digester) sep() { g.buf = append(g.buf, 0x1f) }

func (g *digester) addNull()           { g.buf = append(g.buf, 0x00); g.sep() }
func (g *digester) addInt(v int64)     { g.buf = strconv.AppendInt(g.buf, v, 10); g.sep() }
func (g *digester) addFloat(v float64) { g.buf = strconv.AppendFloat(g.buf, v, 'g', -1, 64); g.sep() }
func (g *digester) addStr(v string)    { g.buf = append(g.buf, v...); g.sep() }

// endRow folds the buffered row into the digest.
func (g *digester) endRow() {
	rh := uint64(14695981039346656037) // FNV-1a, inline: no allocation
	for _, c := range g.buf {
		rh = (rh ^ uint64(c)) * 1099511628211
	}
	if g.limited {
		g.d.hash = (g.d.hash ^ rh) * 1099511628211 // order-sensitive chain
	} else {
		g.d.hash += rh // commutative: a multiset hash
	}
	g.d.rows++
	g.buf = g.buf[:0]
}

// cols returns the column indexes that enter the digest of an n-column row.
func (g *digester) cols(n int) []int {
	if g.limited {
		return g.keys
	}
	if len(g.keys) != n {
		g.keys = make([]int, n)
		for i := range g.keys {
			g.keys[i] = i
		}
	}
	return g.keys
}

// digestBatch digests an engine result for statement q.
func digestBatch(q int, b *storage.Batch) digest {
	g := newDigester(q)
	cols := g.cols(len(b.Cols))
	for i, n := 0, b.Rows(); i < n; i++ {
		for _, c := range cols {
			col := b.Cols[c]
			switch {
			case col.IsNull(i):
				g.addNull()
			case col.Type == storage.TFloat64:
				g.addFloat(col.F64[i])
			case col.Type == storage.TString:
				g.addStr(col.Str[i])
			default:
				g.addInt(col.I64[i])
			}
		}
		g.endRow()
	}
	return g.d
}

// digestRef digests the reference executor's result for statement q.
func digestRef(q int, r *ref.Result) digest {
	g := newDigester(q)
	for _, row := range r.Rows {
		for _, c := range g.cols(len(row)) {
			switch v := row[c].(type) {
			case nil:
				g.addNull()
			case int64:
				g.addInt(v)
			case int:
				g.addInt(int64(v))
			case float64:
				g.addFloat(v)
			case string:
				g.addStr(v)
			default:
				g.addStr(fmt.Sprint(v))
			}
		}
		g.endRow()
	}
	return g.d
}
