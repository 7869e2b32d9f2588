package storage

import "fmt"

// Batch is a set of equal-length columns with a schema: the unit of data
// flowing between operators and (serialized) between servers.
type Batch struct {
	Schema *Schema
	Cols   []*Column
}

// NewBatch creates an empty batch for a schema with a capacity hint. The
// column headers are one slab, not an allocation each.
func NewBatch(schema *Schema, capacity int) *Batch {
	cols := make([]Column, schema.Len())
	b := &Batch{Schema: schema, Cols: make([]*Column, len(cols))}
	for i, f := range schema.Fields {
		cols[i] = makeColumn(f.Type, f.Nullable, capacity)
		b.Cols[i] = &cols[i]
	}
	return b
}

// Rows returns the number of rows in the batch.
func (b *Batch) Rows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// AppendRow appends a row given as Go values (nil = NULL).
func (b *Batch) AppendRow(vals ...any) {
	if len(vals) != len(b.Cols) {
		panic(fmt.Sprintf("storage: AppendRow got %d values for %d columns", len(vals), len(b.Cols)))
	}
	for i, v := range vals {
		b.Cols[i].AppendValue(v)
	}
}

// AppendRowFrom appends row i of src, which must share the schema shape.
func (b *Batch) AppendRowFrom(src *Batch, i int) {
	for c := range b.Cols {
		b.Cols[c].AppendFrom(src.Cols[c], i)
	}
}

// Room returns how many rows can be appended before any column
// reallocates.
func (b *Batch) Room() int {
	if len(b.Cols) == 0 {
		return 0
	}
	room := b.Cols[0].Room()
	for _, c := range b.Cols[1:] {
		room = min(room, c.Room())
	}
	return room
}

// Grow makes room for n more rows in every column (see Column.Grow).
func (b *Batch) Grow(n int) {
	for _, c := range b.Cols {
		c.Grow(n)
	}
}

// Row materializes row i as Go values (tests, reference engine).
func (b *Batch) Row(i int) []any {
	out := make([]any, len(b.Cols))
	for c, col := range b.Cols {
		out[c] = col.Value(i)
	}
	return out
}

// Reset truncates all columns, keeping capacity.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
}

// Validate checks the batch invariants: equal column lengths, types
// matching the schema.
func (b *Batch) Validate() error {
	if len(b.Cols) != b.Schema.Len() {
		return fmt.Errorf("storage: batch has %d columns, schema %d", len(b.Cols), b.Schema.Len())
	}
	n := b.Rows()
	for i, c := range b.Cols {
		if c.Len() != n {
			return fmt.Errorf("storage: column %d has %d rows, expected %d", i, c.Len(), n)
		}
		if c.Type != b.Schema.Fields[i].Type {
			return fmt.Errorf("storage: column %d is %v, schema says %v", i, c.Type, b.Schema.Fields[i].Type)
		}
	}
	return nil
}
