package op

import (
	"fmt"
	"strings"
	"sync/atomic"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// FusedStage evaluates a run of adjacent non-blocking operators — filters,
// computed-column maps and projections — in one pass over the morsel, and
// is the only evaluator of them. It keeps a selection vector of surviving
// row indexes over the *original* morsel: filters shrink the selection, map
// expressions are evaluated only at selected positions into per-worker
// scratch columns, projections just re-point the working column set. Rows
// are copied at most once, at the very end — and not at all when every row
// survives (the output then shares the input's column storage).
//
// Scratch reuse: each worker owns a scratch slot (computed-column buffers,
// output batch) and the selection vector is the worker's own (Worker.Sel),
// so steady-state execution does not allocate per morsel. In reuse mode the
// slot's columns come from the engine's pool and return to it on Release,
// so they outlive the query, not just the morsel. That is only sound when
// the downstream consumer does not retain the batch beyond its synchronous
// Process/Consume call; the planner sets reuse accordingly (a JoinProbe
// downstream always re-materializes, sends/aggregations/top-k consume
// without retaining, hash builds and collectors retain and force reuse
// off).
type FusedStage struct {
	steps []fusedStep
	names []string // per-step labels for OpName
	reuse bool
	// outSchema is the last map's or projection's schema; nil for a run of
	// filters, whose output keeps its input batch's schema.
	outSchema *storage.Schema

	allocs  atomic.Uint64 // fresh column/batch materializations
	scratch []fusedScratch
}

type fusedStepKind int

const (
	stepFilter fusedStepKind = iota
	stepMap
	stepProject
)

type fusedStep struct {
	kind  fusedStepKind
	pred  Pred        // stepFilter
	exprs []NamedExpr // stepMap
	cols  []int       // stepProject
}

// fusedScratch is one worker's reusable state.
type fusedScratch struct {
	work     []*storage.Column
	proj     []*storage.Column
	view     storage.Batch
	computed [][]*storage.Column // [step][expr]; pooled in reuse mode
	out      engine.Slot         // compacted output (reuse mode)
	pass     storage.Batch       // zero-copy output header (reuse mode)
	_pad     [8]uint64           // avoid false sharing between slots
}

// NewFused fuses a run of *Filter/*MapOp/*Project operators. numWorkers
// sizes the per-worker scratch slots; reuse enables cross-morsel scratch
// reuse (see the type comment for when that is sound).
func NewFused(ops []engine.Op, numWorkers int, reuse bool) *FusedStage {
	f := &FusedStage{reuse: reuse}
	for _, o := range ops {
		switch t := o.(type) {
		case *Filter:
			f.steps = append(f.steps, fusedStep{kind: stepFilter, pred: t.Pred})
			f.names = append(f.names, "select")
		case *MapOp:
			f.steps = append(f.steps, fusedStep{kind: stepMap, exprs: t.Exprs})
			f.names = append(f.names, "map")
			f.outSchema = t.Schema
		case *Project:
			f.steps = append(f.steps, fusedStep{kind: stepProject, cols: t.Cols})
			f.names = append(f.names, "project")
			f.outSchema = t.Schema
		default:
			panic(fmt.Sprintf("op: NewFused: %T is not a fusible operator", o))
		}
	}
	if numWorkers < 1 {
		numWorkers = 1
	}
	f.scratch = make([]fusedScratch, numWorkers)
	for i := range f.scratch {
		f.scratch[i].computed = make([][]*storage.Column, len(f.steps))
	}
	return f
}

// OpName implements engine.NamedOp.
func (f *FusedStage) OpName() string {
	return "fused(" + strings.Join(f.names, "+") + ")"
}

// BatchAllocs implements engine.AllocCounter: the number of fresh column
// and batch materializations across the whole run (scratch-pooled buffers
// count once, at first use).
func (f *FusedStage) BatchAllocs() uint64 { return f.allocs.Load() }

// Reuses reports whether the stage reuses its output across morsels.
func (f *FusedStage) Reuses() bool { return f.reuse }

// Process implements engine.Op.
func (f *FusedStage) Process(w *engine.Worker, b *storage.Batch) *storage.Batch {
	n := b.Rows()
	if n == 0 {
		return nil // an empty morsel yields nothing, like a filter that drops every row
	}
	sc := &f.scratch[engine.SlotOf(w, len(f.scratch))]
	cols := append(sc.work[:0], b.Cols...)
	sel := w.Sel(n)
	allPass := true

	for si := range f.steps {
		st := &f.steps[si]
		switch st.kind {
		case stepFilter:
			sc.view.Cols = cols
			v := &sc.view
			if allPass {
				for i := 0; i < n; i++ {
					if st.pred(v, i) {
						if !allPass {
							sel = append(sel, int32(i))
						}
					} else if allPass {
						sel = sel[:0]
						for j := 0; j < i; j++ {
							sel = append(sel, int32(j))
						}
						allPass = false
					}
				}
			} else {
				kept := sel[:0]
				for _, i := range sel {
					if st.pred(v, int(i)) {
						kept = append(kept, i)
					}
				}
				sel = kept
			}
			if !allPass && len(sel) == 0 {
				sc.work = cols[:0]
				return nil
			}
		case stepMap:
			sc.view.Cols = cols
			v := &sc.view
			if sc.computed[si] == nil {
				sc.computed[si] = make([]*storage.Column, len(st.exprs))
			}
			for ei := range st.exprs {
				e := &st.exprs[ei]
				col := sc.computed[si][ei]
				switch {
				case !f.reuse:
					col = &storage.Column{Type: e.Type}
					f.allocs.Add(1)
				case col == nil:
					col = w.TakeColumn(e.Type, false, n)
					sc.computed[si][ei] = col
					f.allocs.Add(1)
				}
				growCol(col, n)
				// Expressions see the pre-map column layout (like MapOp) and
				// run only at surviving positions; values land at their
				// original row index so the selection stays valid.
				if allPass {
					for i := 0; i < n; i++ {
						setComputed(col, i, e.Type, e.Expr(v, i))
					}
				} else {
					for _, i := range sel {
						setComputed(col, int(i), e.Type, e.Expr(v, int(i)))
					}
				}
				cols = append(cols, col)
			}
		case stepProject:
			// Swap the two scratch column slices so the remap never aliases
			// its own source.
			tmp := sc.proj[:0]
			for _, ci := range st.cols {
				tmp = append(tmp, cols[ci])
			}
			sc.proj = cols[:0]
			cols = tmp
		}
	}

	sc.work = cols[:0]
	schema := f.outSchema
	if schema == nil {
		schema = b.Schema
	}
	if allPass {
		// Zero-copy: every row survived, share the final column set.
		if f.reuse {
			if sc.pass.Cols == nil {
				f.allocs.Add(1)
			}
			sc.pass.Schema = schema
			sc.pass.Cols = append(sc.pass.Cols[:0], cols...)
			return &sc.pass
		}
		f.allocs.Add(1)
		return &storage.Batch{Schema: schema, Cols: append(make([]*storage.Column, 0, len(cols)), cols...)}
	}
	var out *storage.Batch
	if f.reuse {
		var fresh bool
		if out, fresh = sc.out.Take(w, schema, len(sel)); fresh {
			f.allocs.Add(1)
		}
	} else {
		out = storage.NewBatch(schema, len(sel))
		f.allocs.Add(1)
	}
	for ci, src := range cols {
		gatherCol(out.Cols[ci], src, sel)
	}
	return out
}

// Release implements engine.Releaser: in reuse mode every slot's output
// and computed columns go back to the engine's pool.
func (f *FusedStage) Release(w *engine.Worker) {
	if !f.reuse {
		return
	}
	for i := range f.scratch {
		sc := &f.scratch[i]
		sc.out.Release(w)
		for _, cs := range sc.computed {
			w.GiveColumns(cs)
			clear(cs)
		}
		clear(sc.pass.Cols)
	}
}

// growCol resizes a scratch column to exactly n indexable slots, reusing
// the backing arrays when the capacity suffices.
func growCol(c *storage.Column, n int) {
	switch c.Type {
	case storage.TFloat64:
		if cap(c.F64) >= n {
			c.F64 = c.F64[:n]
		} else {
			c.F64 = make([]float64, n)
		}
	case storage.TString:
		if cap(c.Str) >= n {
			c.Str = c.Str[:n]
		} else {
			c.Str = make([]string, n)
		}
	default:
		if cap(c.I64) >= n {
			c.I64 = c.I64[:n]
		} else {
			c.I64 = make([]int64, n)
		}
	}
}

// setComputed stores an expression value at row i. Computed columns are
// non-nullable: an expression that yields NULL stores its type's zero value.
func setComputed(c *storage.Column, i int, t storage.Type, v Val) {
	switch t {
	case storage.TFloat64:
		c.F64[i] = v.F
	case storage.TString:
		c.Str[i] = v.S
	default:
		c.I64[i] = v.I
	}
}

// gatherCol appends the selected rows of src to dst with typed loops
// (no per-value interface dispatch).
func gatherCol(dst, src *storage.Column, sel []int32) {
	switch src.Type {
	case storage.TFloat64:
		for _, i := range sel {
			dst.F64 = append(dst.F64, src.F64[i])
		}
	case storage.TString:
		for _, i := range sel {
			dst.Str = append(dst.Str, src.Str[i])
		}
	default:
		for _, i := range sel {
			dst.I64 = append(dst.I64, src.I64[i])
		}
	}
	if dst.Nullable {
		if src.Nullable {
			for _, i := range sel {
				dst.Valid = append(dst.Valid, src.Valid[i])
			}
		} else {
			for range sel {
				dst.Valid = append(dst.Valid, true)
			}
		}
	}
}
