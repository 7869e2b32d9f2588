// Package ser implements the densely-packed binary tuple serialization
// format of Figure 8 and the schema-specialized (de)serializers of §3.2.1.
//
// The format has three parts per tuple:
//
//  1. the values of all fixed-size attributes that are NOT NULL-able, in a
//     deterministic order: first by data type, then by schema order;
//  2. for each nullable fixed-size attribute, a null indicator byte
//     followed by the value iff present;
//  3. variable-length attributes (strings), stored as a uint32 size and
//     the raw bytes (with a null indicator byte first when nullable).
//
// HyPer generates this code with LLVM for the specific input schema so no
// schema interpretation happens per tuple. The Go equivalent: NewCodec
// precomputes the field classification and emits per-field closures, so
// the per-tuple loop dispatches through a compact closure array instead of
// interpreting the schema.
package ser

import (
	"encoding/binary"
	"fmt"

	"hsqp/internal/storage"
)

// Codec serializes and deserializes tuples of one schema.
type Codec struct {
	schema *storage.Schema

	// Order-of-emission field lists (Figure 8).
	fixedNotNull []int // part 1, sorted by (type, schema order)
	nullableFix  []int // part 2
	varlen       []int // part 3 (schema order)

	enc []func(b *storage.Batch, row int, out []byte) []byte
	dec []func(in []byte, b *storage.Batch) ([]byte, error)

	// What DecodeAll needs to size its destination before it appends:
	// part 1's width, the fewest bytes a row can take (every nullable
	// field NULL, every string empty), and whether those are the same —
	// then the row count is a division, otherwise countRows walks the
	// row boundaries.
	fixedBytes  int
	minRowBytes int
}

// NewCodec builds a specialized codec for the schema.
func NewCodec(schema *storage.Schema) *Codec {
	c := &Codec{schema: schema}
	// Classify fields.
	for i, f := range schema.Fields {
		switch {
		case !f.Type.Fixed():
			c.varlen = append(c.varlen, i)
		case f.Nullable:
			c.nullableFix = append(c.nullableFix, i)
		default:
			c.fixedNotNull = append(c.fixedNotNull, i)
		}
	}
	// Part 1 is ordered by data type first, schema order second.
	sortByTypeThenOrder(schema, c.fixedNotNull)

	emit := func(idx int, mode emitMode) {
		f := schema.Fields[idx]
		c.enc = append(c.enc, makeEncoder(idx, f, mode))
		c.dec = append(c.dec, makeDecoder(idx, f, mode))
	}
	for _, i := range c.fixedNotNull {
		emit(i, emitPlain)
	}
	for _, i := range c.nullableFix {
		emit(i, emitNullable)
	}
	for _, i := range c.varlen {
		if schema.Fields[i].Nullable {
			emit(i, emitVarNullable)
		} else {
			emit(i, emitVar)
		}
	}
	for _, i := range c.fixedNotNull {
		c.fixedBytes += schema.Fields[i].Type.FixedSize()
	}
	c.minRowBytes = c.fixedBytes + len(c.nullableFix)
	for _, i := range c.varlen {
		if schema.Fields[i].Nullable {
			c.minRowBytes++
		} else {
			c.minRowBytes += 4
		}
	}
	return c
}

// Schema returns the codec's schema.
func (c *Codec) Schema() *storage.Schema { return c.schema }

// EncodeRow appends the serialized form of row `row` of b to out.
func (c *Codec) EncodeRow(b *storage.Batch, row int, out []byte) []byte {
	for _, e := range c.enc {
		out = e(b, row, out)
	}
	return out
}

// RowSize returns the serialized size of row `row` without encoding it.
func (c *Codec) RowSize(b *storage.Batch, row int) int {
	n := c.fixedBytes
	for _, i := range c.nullableFix {
		n++ // indicator
		if !b.Cols[i].IsNull(row) {
			n += c.schema.Fields[i].Type.FixedSize()
		}
	}
	for _, i := range c.varlen {
		if c.schema.Fields[i].Nullable {
			n++
			if b.Cols[i].IsNull(row) {
				continue
			}
		}
		n += 4 + len(b.Cols[i].Str[row])
	}
	return n
}

// DecodeAll decodes the whole buffer into dst, appending rows. It returns
// the number of rows decoded. A schema whose rows serialize to zero bytes
// (no decodable fields) cannot make progress against a non-empty buffer;
// that case returns an error instead of looping forever.
//
// dst is grown at most once, and only when it runs out of room: the rows
// still to come are counted (countRows) and every column is grown to
// exactly fit them, so a fresh dst ends with cap == len and a dst that
// already has the room (a reused batch) costs nothing. The reservation is
// bounded by len(in)/minRowBytes whatever the bytes say, and malformed
// input fails in the decoders with the error it always had.
func (c *Codec) DecodeAll(in []byte, dst *storage.Batch) (int, error) {
	rows := 0
	room := dst.Room()
	for len(in) > 0 {
		if room == 0 {
			room = c.countRows(in)
			dst.Grow(room)
		}
		var err error
		before := len(in)
		for _, d := range c.dec {
			if in, err = d(in, dst); err != nil {
				return rows, fmt.Errorf("ser: row %d: %w", rows, err)
			}
		}
		if len(in) >= before {
			return rows, fmt.Errorf("ser: no progress decoding row %d: schema has no decodable fields but %d input bytes remain", rows, len(in))
		}
		rows++
		room--
	}
	return rows, nil
}

// countRows returns how many whole rows in holds, without decoding
// values: a division when every row has the same width, otherwise a walk
// over the row boundaries that applies the length checks the decoders
// apply and stops at the first row that fails one. It never reads past in
// and never counts more than len(in)/minRowBytes.
func (c *Codec) countRows(in []byte) int {
	if c.minRowBytes == 0 {
		return 0
	}
	if c.fixedBytes == c.minRowBytes {
		return len(in) / c.fixedBytes
	}
	rows := 0
	for len(in) >= c.fixedBytes {
		rest := in[c.fixedBytes:]
		for _, i := range c.nullableFix {
			if len(rest) < 1 {
				return rows
			}
			size := 1
			if rest[0] != 0 {
				size += c.schema.Fields[i].Type.FixedSize()
			}
			if len(rest) < size {
				return rows
			}
			rest = rest[size:]
		}
		for _, i := range c.varlen {
			if c.schema.Fields[i].Nullable {
				if len(rest) < 1 {
					return rows
				}
				present := rest[0] != 0
				rest = rest[1:]
				if !present {
					continue
				}
			}
			if len(rest) < 4 {
				return rows
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if len(rest)-4 < n {
				return rows
			}
			rest = rest[4+n:]
		}
		in = rest
		rows++
	}
	return rows
}

type emitMode int

const (
	emitPlain emitMode = iota
	emitNullable
	emitVar
	emitVarNullable
)

func makeEncoder(idx int, f storage.Field, mode emitMode) func(*storage.Batch, int, []byte) []byte {
	t := f.Type
	switch mode {
	case emitPlain:
		switch t {
		case storage.TDate:
			return func(b *storage.Batch, row int, out []byte) []byte {
				return binary.LittleEndian.AppendUint32(out, uint32(int32(b.Cols[idx].I64[row])))
			}
		case storage.TFloat64:
			return func(b *storage.Batch, row int, out []byte) []byte {
				bits := f64bits(b.Cols[idx].F64[row])
				return binary.LittleEndian.AppendUint64(out, bits)
			}
		default: // int64, decimal
			return func(b *storage.Batch, row int, out []byte) []byte {
				return binary.LittleEndian.AppendUint64(out, uint64(b.Cols[idx].I64[row]))
			}
		}
	case emitNullable:
		return func(b *storage.Batch, row int, out []byte) []byte {
			col := b.Cols[idx]
			if col.IsNull(row) {
				return append(out, 0)
			}
			out = append(out, 1)
			switch t {
			case storage.TDate:
				return binary.LittleEndian.AppendUint32(out, uint32(int32(col.I64[row])))
			case storage.TFloat64:
				return binary.LittleEndian.AppendUint64(out, f64bits(col.F64[row]))
			default:
				return binary.LittleEndian.AppendUint64(out, uint64(col.I64[row]))
			}
		}
	case emitVar:
		return func(b *storage.Batch, row int, out []byte) []byte {
			s := b.Cols[idx].Str[row]
			out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
			return append(out, s...)
		}
	default: // emitVarNullable
		return func(b *storage.Batch, row int, out []byte) []byte {
			col := b.Cols[idx]
			if col.IsNull(row) {
				return append(out, 0)
			}
			out = append(out, 1)
			s := col.Str[row]
			out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
			return append(out, s...)
		}
	}
}

func makeDecoder(idx int, f storage.Field, mode emitMode) func([]byte, *storage.Batch) ([]byte, error) {
	t := f.Type
	errShort := fmt.Errorf("ser: truncated input for field %q", f.Name)
	readFixed := func(in []byte, col *storage.Column) ([]byte, error) {
		switch t {
		case storage.TDate:
			if len(in) < 4 {
				return nil, errShort
			}
			col.AppendI64(int64(int32(binary.LittleEndian.Uint32(in))))
			return in[4:], nil
		case storage.TFloat64:
			if len(in) < 8 {
				return nil, errShort
			}
			col.AppendF64(f64frombits(binary.LittleEndian.Uint64(in)))
			return in[8:], nil
		default:
			if len(in) < 8 {
				return nil, errShort
			}
			col.AppendI64(int64(binary.LittleEndian.Uint64(in)))
			return in[8:], nil
		}
	}
	switch mode {
	case emitPlain:
		return func(in []byte, b *storage.Batch) ([]byte, error) {
			return readFixed(in, b.Cols[idx])
		}
	case emitNullable:
		return func(in []byte, b *storage.Batch) ([]byte, error) {
			if len(in) < 1 {
				return nil, errShort
			}
			ind := in[0]
			in = in[1:]
			if ind == 0 {
				b.Cols[idx].AppendNull()
				return in, nil
			}
			return readFixed(in, b.Cols[idx])
		}
	case emitVar:
		return func(in []byte, b *storage.Batch) ([]byte, error) {
			if len(in) < 4 {
				return nil, errShort
			}
			n := int(binary.LittleEndian.Uint32(in))
			in = in[4:]
			if len(in) < n {
				return nil, errShort
			}
			b.Cols[idx].AppendStr(string(in[:n]))
			return in[n:], nil
		}
	default: // emitVarNullable
		return func(in []byte, b *storage.Batch) ([]byte, error) {
			if len(in) < 1 {
				return nil, errShort
			}
			ind := in[0]
			in = in[1:]
			if ind == 0 {
				b.Cols[idx].AppendNull()
				return in, nil
			}
			if len(in) < 4 {
				return nil, errShort
			}
			n := int(binary.LittleEndian.Uint32(in))
			in = in[4:]
			if len(in) < n {
				return nil, errShort
			}
			b.Cols[idx].AppendStr(string(in[:n]))
			return in[n:], nil
		}
	}
}

func sortByTypeThenOrder(schema *storage.Schema, idx []int) {
	// Insertion sort: field lists are tiny.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			ta, tb := schema.Fields[a].Type, schema.Fields[b].Type
			if ta > tb || (ta == tb && a > b) {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			} else {
				break
			}
		}
	}
}
