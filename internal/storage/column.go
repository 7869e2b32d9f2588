package storage

import "fmt"

// Column is a typed column vector. Numeric types (int64, decimal, date)
// share the I64 backing; floats use F64; strings use Str. A nullable
// column additionally tracks validity (true = present). TPC-H data itself
// contains no NULLs, but outer joins and the wire format support them.
type Column struct {
	Type     Type
	Nullable bool
	I64      []int64
	F64      []float64
	Str      []string
	Valid    []bool // nil when !Nullable
}

// NewColumn creates an empty column with the given capacity hint.
func NewColumn(t Type, nullable bool, capacity int) *Column {
	c := makeColumn(t, nullable, capacity)
	return &c
}

func makeColumn(t Type, nullable bool, capacity int) Column {
	c := Column{Type: t, Nullable: nullable}
	switch t {
	case TFloat64:
		c.F64 = make([]float64, 0, capacity)
	case TString:
		c.Str = make([]string, 0, capacity)
	default:
		c.I64 = make([]int64, 0, capacity)
	}
	if nullable {
		c.Valid = make([]bool, 0, capacity)
	}
	return c
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Type {
	case TFloat64:
		return len(c.F64)
	case TString:
		return len(c.Str)
	default:
		return len(c.I64)
	}
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.Nullable && !c.Valid[i]
}

// AppendI64 appends an integer-backed value (int64, decimal, date).
func (c *Column) AppendI64(v int64) {
	c.I64 = append(c.I64, v)
	if c.Nullable {
		c.Valid = append(c.Valid, true)
	}
}

// AppendF64 appends a float value.
func (c *Column) AppendF64(v float64) {
	c.F64 = append(c.F64, v)
	if c.Nullable {
		c.Valid = append(c.Valid, true)
	}
}

// AppendStr appends a string value.
func (c *Column) AppendStr(v string) {
	c.Str = append(c.Str, v)
	if c.Nullable {
		c.Valid = append(c.Valid, true)
	}
}

// AppendNull appends a NULL. The column must be nullable.
func (c *Column) AppendNull() {
	if !c.Nullable {
		panic("storage: AppendNull on non-nullable column")
	}
	switch c.Type {
	case TFloat64:
		c.F64 = append(c.F64, 0)
	case TString:
		c.Str = append(c.Str, "")
	default:
		c.I64 = append(c.I64, 0)
	}
	c.Valid = append(c.Valid, false)
}

// AppendValue appends a Go value, dispatching on the column type. Useful
// for tests and the reference engine; hot paths use the typed appends.
func (c *Column) AppendValue(v any) {
	if v == nil {
		c.AppendNull()
		return
	}
	switch c.Type {
	case TFloat64:
		c.AppendF64(v.(float64))
	case TString:
		c.AppendStr(v.(string))
	default:
		switch x := v.(type) {
		case int64:
			c.AppendI64(x)
		case int:
			c.AppendI64(int64(x))
		default:
			panic(fmt.Sprintf("storage: cannot append %T to %v column", v, c.Type))
		}
	}
}

// AppendFrom appends row i of src (which must have the same type).
func (c *Column) AppendFrom(src *Column, i int) {
	if src.Nullable && !src.Valid[i] {
		c.AppendNull()
		return
	}
	switch c.Type {
	case TFloat64:
		c.AppendF64(src.F64[i])
	case TString:
		c.AppendStr(src.Str[i])
	default:
		c.AppendI64(src.I64[i])
	}
}

// Room returns how many values can be appended before the column
// reallocates.
func (c *Column) Room() int {
	room := 0
	switch c.Type {
	case TFloat64:
		room = cap(c.F64) - len(c.F64)
	case TString:
		room = cap(c.Str) - len(c.Str)
	default:
		room = cap(c.I64) - len(c.I64)
	}
	if c.Nullable {
		room = min(room, cap(c.Valid)-len(c.Valid))
	}
	return room
}

// Grow makes room for n more values. When it has to reallocate, the new
// capacity is exactly Len()+n: the caller knows the final size (a decoder
// that counted its rows), so append-doubling's slack would be waste.
func (c *Column) Grow(n int) {
	if c.Room() >= n {
		return
	}
	switch c.Type {
	case TFloat64:
		c.F64 = append(make([]float64, 0, len(c.F64)+n), c.F64...)
	case TString:
		c.Str = append(make([]string, 0, len(c.Str)+n), c.Str...)
	default:
		c.I64 = append(make([]int64, 0, len(c.I64)+n), c.I64...)
	}
	if c.Nullable {
		c.Valid = append(make([]bool, 0, len(c.Valid)+n), c.Valid...)
	}
}

// SetLen gives c exactly n values of its type, keeping the backing array
// when it has room: a scratch column whose user writes its values by
// index. The values are stale, and the validity vector is left as it is.
func (c *Column) SetLen(n int) {
	switch c.Type {
	case TFloat64:
		c.F64 = setLen(c.F64, n)
	case TString:
		c.Str = setLen(c.Str, n)
	default:
		c.I64 = setLen(c.I64, n)
	}
}

func setLen[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n, n+n/4)
	}
	return v[:n]
}

// Value returns row i as a Go value (nil for NULL).
func (c *Column) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	switch c.Type {
	case TFloat64:
		return c.F64[i]
	case TString:
		return c.Str[i]
	default:
		return c.I64[i]
	}
}

// Reset truncates the column to zero length, keeping capacity.
func (c *Column) Reset() {
	c.I64 = c.I64[:0]
	c.F64 = c.F64[:0]
	c.Str = c.Str[:0]
	if c.Valid != nil {
		c.Valid = c.Valid[:0]
	}
}
