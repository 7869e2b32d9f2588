package op

import (
	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// Filter keeps the rows satisfying the predicate. Like MapOp and Project
// it is a step descriptor for NewFused: the planner fuses every run of them
// into one FusedStage, and Process runs a one-step stage.
type Filter struct {
	Pred Pred
}

// Process implements engine.Op.
func (f *Filter) Process(w *engine.Worker, b *storage.Batch) *storage.Batch {
	return NewFused([]engine.Op{f}, 1, false).Process(w, b)
}

// Project keeps (and reorders) the given columns. Column storage is shared
// with the input: batches are immutable once produced.
type Project struct {
	Cols []int
	// Schema is the output schema (projection of the input schema).
	Schema *storage.Schema
}

// NewProject builds a projection over the input schema.
func NewProject(in *storage.Schema, cols []int) *Project {
	return &Project{Cols: cols, Schema: in.Project(cols)}
}

// Process implements engine.Op.
func (p *Project) Process(w *engine.Worker, b *storage.Batch) *storage.Batch {
	return NewFused([]engine.Op{p}, 1, false).Process(w, b)
}

// NamedExpr is a computed output column.
type NamedExpr struct {
	Name string
	Type storage.Type
	Expr Expr
}

// MapOp appends computed columns to the batch (keeping all input columns).
type MapOp struct {
	Exprs []NamedExpr
	// Schema is the output schema: input schema + computed fields.
	Schema *storage.Schema
}

// NewMap builds a map operator over the input schema.
func NewMap(in *storage.Schema, exprs []NamedExpr) *MapOp {
	out := &storage.Schema{Fields: append([]storage.Field{}, in.Fields...)}
	for _, e := range exprs {
		out.Fields = append(out.Fields, storage.Field{Name: e.Name, Type: e.Type})
	}
	return &MapOp{Exprs: exprs, Schema: out}
}

// Process implements engine.Op.
func (m *MapOp) Process(w *engine.Worker, b *storage.Batch) *storage.Batch {
	return NewFused([]engine.Op{m}, 1, false).Process(w, b)
}
