package op

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// nullableBatch returns n random rows of a nullable int, decimal and string
// column, about one value in five NULL.
func nullableBatch(rng *rand.Rand, n int) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "i", Type: storage.TInt64, Nullable: true},
		storage.Field{Name: "d", Type: storage.TDecimal, Nullable: true},
		storage.Field{Name: "s", Type: storage.TString, Nullable: true},
	), n)
	for r := 0; r < n; r++ {
		row := []any{rng.Int63n(100) - 20, rng.Int63n(1000), []string{"", "a", "b", "c"}[rng.Intn(4)]}
		for c := range row {
			if rng.Intn(5) == 0 {
				row[c] = nil
			}
		}
		b.AppendRow(row...)
	}
	return b
}

// randomChain builds one step per kind over schema in: 'f' filters a random
// column and 'F' the last one (so it reads a computed or projected column
// when a map or projection precedes it) with I64LT, I64GE or StrEQ; 'm' maps
// one or two Col or MulDec expressions; 'p' projects a random permutation
// of a random non-empty subset of the columns. It returns the steps and the
// schema they produce.
func randomChain(rng *rand.Rand, in *storage.Schema, kinds string) ([]engine.Op, *storage.Schema) {
	var chain []engine.Op
	cur := in
	for k, kind := range kinds {
		switch kind {
		case 'f', 'F':
			c := len(cur.Fields) - 1
			if kind == 'f' {
				c = rng.Intn(len(cur.Fields))
			}
			var pred Pred
			switch {
			case cur.Fields[c].Type == storage.TString:
				pred = StrEQ(c, []string{"", "a", "b"}[rng.Intn(3)])
			case rng.Intn(2) == 0:
				pred = I64LT(c, rng.Int63n(600)-100)
			default:
				pred = I64GE(c, rng.Int63n(600)-100)
			}
			chain = append(chain, &Filter{Pred: pred})
		case 'm':
			exprs := make([]NamedExpr, 0, 2)
			for e, n := 0, 1+rng.Intn(2); e < n; e++ {
				a, b := rng.Intn(len(cur.Fields)), rng.Intn(len(cur.Fields))
				ne := NamedExpr{Name: fmt.Sprintf("e%d.%d", k, e), Type: cur.Fields[a].Type, Expr: Col(a)}
				if cur.Fields[a].Type != storage.TString && cur.Fields[b].Type != storage.TString && rng.Intn(2) == 0 {
					ne.Type, ne.Expr = storage.TDecimal, MulDec(Col(a), Col(b))
				}
				exprs = append(exprs, ne)
			}
			m := NewMap(cur, exprs)
			chain, cur = append(chain, m), m.Schema
		case 'p':
			p := NewProject(cur, rng.Perm(len(cur.Fields))[:1+rng.Intn(len(cur.Fields))])
			chain, cur = append(chain, p), p.Schema
		}
	}
	return chain, cur
}

// interpret is the oracle: it runs the chain one row at a time. Each input
// row becomes a one-row batch of Go values that every step rewrites — a
// filter drops it, a map appends its computed values, a projection picks
// values — and the survivors are appended to the result (nil when none).
func interpret(chain []engine.Op, in *storage.Batch) *storage.Batch {
	oneRow := func(s *storage.Schema, vals []any) *storage.Batch {
		b := storage.NewBatch(s, 1)
		b.AppendRow(vals...)
		return b
	}
	var out *storage.Batch
rows:
	for r := 0; r < in.Rows(); r++ {
		row := oneRow(in.Schema, in.Row(r))
		for _, o := range chain {
			switch s := o.(type) {
			case *Filter:
				if !s.Pred(row, 0) {
					continue rows
				}
			case *MapOp:
				vals := row.Row(0)
				for _, e := range s.Exprs {
					v := e.Expr(row, 0)
					if v.Null {
						v = Val{} // computed columns are non-nullable: NULL stores zero
					}
					switch e.Type {
					case storage.TFloat64:
						vals = append(vals, v.F)
					case storage.TString:
						vals = append(vals, v.S)
					default:
						vals = append(vals, v.I)
					}
				}
				row = oneRow(s.Schema, vals)
			case *Project:
				vals := make([]any, len(s.Cols))
				for i, c := range s.Cols {
					vals[i] = row.Cols[c].Value(0)
				}
				row = oneRow(s.Schema, vals)
			}
		}
		if out == nil {
			out = storage.NewBatch(row.Schema, 0)
		}
		out.AppendRowFrom(row, 0)
	}
	return out
}

// TestFusedMatchesRowOracle is the differential test of the one evaluator
// of filters, maps and projections: random chains of one to four steps over
// random batches holding NULLs, run by a fresh-output stage, a reuse-mode
// stage on a bare worker and a reuse-mode stage on two pooled workers
// across a Release → take cycle, must each return the oracle's rows, with
// the chain's schema, and nil when no row survives.
func TestFusedMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	shapes := []string{"f", "m", "p", "ff", "mF", "pF", "mpF", "fmpf", "pmFF", "mmpF"}
	for len(shapes) < 40 {
		kinds := make([]byte, 1+rng.Intn(4))
		for i := range kinds {
			kinds[i] = "ffFmp"[rng.Intn(5)]
		}
		shapes = append(shapes, string(kinds))
	}
	e := testEngine(t, 2)
	pooled := []*engine.Worker{e.NewWorker(0), e.NewWorker(1)}
	for _, kinds := range shapes {
		for _, n := range []int{0, 1, 63, 64, 1000} {
			batches := []*storage.Batch{nullableBatch(rng, n), nullableBatch(rng, n)}
			chain, schema := randomChain(rng, batches[0].Schema, kinds)
			wants := []*storage.Batch{interpret(chain, batches[0]), interpret(chain, batches[1])}
			check := func(mode string, got *storage.Batch, bi int) {
				t.Helper()
				want := wants[bi]
				switch {
				case want == nil && got == nil:
					return
				case want == nil:
					t.Fatalf("%s %s n=%d: %d rows, want nil", kinds, mode, n, got.Rows())
				case got == nil:
					t.Fatalf("%s %s n=%d: nil, want %d rows", kinds, mode, n, want.Rows())
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s %s n=%d: %v", kinds, mode, n, err)
				}
				if !got.Schema.Equal(schema) {
					t.Fatalf("%s %s n=%d: schema %v, want %v", kinds, mode, n, got.Schema, schema)
				}
				for c, col := range got.Cols {
					if col.Nullable != schema.Fields[c].Nullable {
						t.Fatalf("%s %s n=%d: column %d nullable=%v, schema says %v", kinds, mode, n, c, col.Nullable, schema.Fields[c].Nullable)
					}
				}
				if got.Rows() != want.Rows() {
					t.Fatalf("%s %s n=%d: %d rows, want %d", kinds, mode, n, got.Rows(), want.Rows())
				}
				for r := 0; r < want.Rows(); r++ {
					if !reflect.DeepEqual(got.Row(r), want.Row(r)) {
						t.Fatalf("%s %s n=%d: row %d is %v, want %v", kinds, mode, n, r, got.Row(r), want.Row(r))
					}
				}
			}

			fresh := NewFused(chain, 1, false)
			bare, bareWorker := NewFused(chain, 1, true), &engine.Worker{}
			reused := NewFused(chain, len(pooled), true)
			for bi, b := range batches {
				check("fresh", fresh.Process(nil, b), bi)
				check("reuse/bare", bare.Process(bareWorker, b), bi)
			}
			for cycle := 0; cycle < 2; cycle++ {
				for _, w := range pooled {
					for bi, b := range batches {
						check(fmt.Sprintf("reuse/pooled w%d cycle %d", w.ID, cycle), reused.Process(w, b), bi)
					}
				}
				reused.Release(pooled[0])
			}
		}
	}
}
