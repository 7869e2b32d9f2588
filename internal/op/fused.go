package op

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// FusedStage evaluates a run of adjacent non-blocking operators — filters,
// computed-column maps and projections — in one pass over the morsel, and
// is the only evaluator of them. It keeps a selection vector of surviving
// row indexes over the *original* morsel, starting as the identity: each
// filter shrinks it with one Pred.Select, each map expression is evaluated
// with one Expr.Vec at the selected positions into a per-worker scratch
// column (a Col is the input column itself), projections just re-point the
// working column set. Rows are copied at most once, at the very end — and
// not at all when every row survives (the output then shares the input's
// column storage).
//
// Scratch reuse: each worker owns a scratch slot (computed-column buffers,
// output batch) and the selection vector comes from the worker's scratch
// stack (Worker.PushI32), so steady-state execution does not allocate per
// morsel. In reuse mode the slot's columns come from the engine's pool and
// return to it on Release, so they outlive the query, not just the morsel.
// That is only sound when the downstream consumer does not retain the batch
// beyond its synchronous Process/Consume call; the planner sets reuse
// accordingly (a JoinProbe downstream always re-materializes,
// sends/aggregations/top-k consume without retaining, hash builds and
// collectors retain and force reuse off).
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
	sel := w.PushI32(n)[:n]
	defer w.PopI32(sel)
	for i := range sel {
		sel[i] = int32(i)
	}

	for si := range f.steps {
		st := &f.steps[si]
		switch st.kind {
		case stepFilter:
			sc.view.Cols = cols
			if sel = st.pred.Select(w, &sc.view, sel, sel); len(sel) == 0 {
				sc.work = cols[:0]
				return nil
			}
		case stepMap:
			// Expressions see the pre-map column layout (like MapOp).
			sc.view.Cols = cols
			if sc.computed[si] == nil {
				sc.computed[si] = make([]*storage.Column, len(st.exprs))
			}
			for ei := range st.exprs {
				cols = append(cols, f.compute(w, sc, si, ei, n, sel))
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
	if len(sel) == n {
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

// compute evaluates expression ei of map step si at sel and returns the
// column the step appends. When the batch form returns a non-nullable input
// column of the declared type (a Col), that column is appended itself.
// Otherwise each selected row's value lands at the row's own index of a
// computed column, so the selection stays valid. A computed column is
// non-nullable, as the map's schema says: a NULL stores its type's zero.
func (f *FusedStage) compute(w *engine.Worker, sc *fusedScratch, si, ei, n int, sel []int32) *storage.Column {
	e := &f.steps[si].exprs[ei]
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
	col.SetLen(n)
	res := e.Expr.Vec(w, &sc.view, sel, col)
	if res.Type == e.Type && !res.Nullable {
		return res // col itself, or an input column shared zero-copy
	}
	if res != col {
		copyAt(col, res, sel)
	}
	if col.Nullable {
		zeroNulls(col, sel)
	}
	return col
}

// copyAt copies the selected rows of src into dst, each to its own index,
// values and validity.
func copyAt(dst, src *storage.Column, sel []int32) {
	switch dst.Type {
	case storage.TFloat64:
		for _, i := range sel {
			dst.F64[i] = src.F64[i]
		}
	case storage.TString:
		for _, i := range sel {
			dst.Str[i] = src.Str[i]
		}
	default:
		for _, i := range sel {
			dst.I64[i] = src.I64[i]
		}
	}
	dst.Nullable = false
	if src.Nullable {
		v := validity(dst)
		for _, i := range sel {
			v[i] = src.Valid[i]
		}
	}
}

// zeroNulls stores its type's zero at the NULL rows of sel in c and makes
// c non-nullable.
func zeroNulls(c *storage.Column, sel []int32) {
	for _, i := range sel {
		if c.Valid[i] {
			continue
		}
		switch c.Type {
		case storage.TFloat64:
			c.F64[i] = 0
		case storage.TString:
			c.Str[i] = ""
		default:
			c.I64[i] = 0
		}
	}
	c.Nullable = false
}

// gatherCol appends the selected rows of src to dst with typed loops
// (no per-value interface dispatch).
func gatherCol(dst, src *storage.Column, sel []int32) {
	switch src.Type {
	case storage.TFloat64:
		dst.F64 = gather(dst.F64, src.F64, sel)
	case storage.TString:
		dst.Str = gather(dst.Str, src.Str, sel)
	default:
		dst.I64 = gather(dst.I64, src.I64, sel)
	}
	if dst.Nullable {
		if src.Nullable {
			dst.Valid = gather(dst.Valid, src.Valid, sel)
		} else {
			for range sel {
				dst.Valid = append(dst.Valid, true)
			}
		}
	}
}

// gather appends vs[i] for every i of sel to dst, growing it once.
func gather[T any](dst, vs []T, sel []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	d := dst[n:]
	for k, i := range sel {
		d[k] = vs[i]
	}
	return dst
}
