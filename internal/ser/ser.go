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
	"strings"

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
	dec []func(in []byte, b *storage.Batch) ([]byte, error) // parts 1 and 2

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
		if f.Type.Fixed() {
			c.dec = append(c.dec, makeDecoder(idx, f))
		}
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
// Decoding allocates per message, not per row: before it appends, the
// rows in holds and their string bytes are counted (countRows), every
// column is grown to exactly fit those rows — a fresh dst ends with
// cap == len, a dst that already has the room (a reused batch) costs
// nothing — and the string values are copied into one arena of exactly
// their size and appended as substrings of it. Both reservations are
// bounded by len(in) whatever the bytes say; a row past the counted ones
// (malformed input) copies its strings on their own and fails in the
// decoders with the error it always had.
//
// A decoded string therefore keeps its message's string bytes alive, and
// never aliases in: the exchange releases in to the pool right after.
func (c *Codec) DecodeAll(in []byte, dst *storage.Batch) (int, error) {
	whole, strBytes := c.countRows(in)
	return c.decodeCounted(in, dst, whole, strBytes)
}

// DecodeInto is DecodeAll into the batch take returns for the buffer's row
// count: a caller that keeps its own destinations (the exchange's
// per-worker decode slots) sizes one from the count DecodeAll would grow
// by, without walking the rows twice.
func (c *Codec) DecodeInto(in []byte, take func(rows int) *storage.Batch) (*storage.Batch, error) {
	whole, strBytes := c.countRows(in)
	dst := take(whole)
	_, err := c.decodeCounted(in, dst, whole, strBytes)
	return dst, err
}

// decodeCounted is DecodeAll once countRows has counted in.
func (c *Codec) decodeCounted(in []byte, dst *storage.Batch, whole, strBytes int) (int, error) {
	dst.Grow(whole)
	var arena strings.Builder
	arena.Grow(strBytes)
	rows := 0
	for len(in) > 0 {
		var err error
		before := len(in)
		for _, d := range c.dec {
			if in, err = d(in, dst); err != nil {
				return rows, fmt.Errorf("ser: row %d: %w", rows, err)
			}
		}
		for _, i := range c.varlen {
			if in, err = decodeStr(in, &c.schema.Fields[i], dst.Cols[i], &arena); err != nil {
				return rows, fmt.Errorf("ser: row %d: %w", rows, err)
			}
		}
		if len(in) >= before {
			return rows, fmt.Errorf("ser: no progress decoding row %d: schema has no decodable fields but %d input bytes remain", rows, len(in))
		}
		rows++
	}
	return rows, nil
}

// countRows returns how many whole rows in holds and how many string
// bytes those rows carry, without decoding values: a division when every
// row has the same width, otherwise a walk over the row boundaries that
// applies the length checks the decoders apply and stops at the first row
// that fails one. It never reads past in, never counts more than
// len(in)/minRowBytes rows nor more than len(in) string bytes.
func (c *Codec) countRows(in []byte) (rows, strBytes int) {
	if c.minRowBytes == 0 {
		return 0, 0
	}
	if c.fixedBytes == c.minRowBytes {
		return len(in) / c.fixedBytes, 0
	}
	for len(in) >= c.fixedBytes {
		rest := in[c.fixedBytes:]
		for _, i := range c.nullableFix {
			if len(rest) < 1 {
				return rows, strBytes
			}
			size := 1
			if rest[0] != 0 {
				size += c.schema.Fields[i].Type.FixedSize()
			}
			if len(rest) < size {
				return rows, strBytes
			}
			rest = rest[size:]
		}
		rowStr := 0
		for _, i := range c.varlen {
			if c.schema.Fields[i].Nullable {
				if len(rest) < 1 {
					return rows, strBytes
				}
				present := rest[0] != 0
				rest = rest[1:]
				if !present {
					continue
				}
			}
			if len(rest) < 4 {
				return rows, strBytes
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if len(rest)-4 < n {
				return rows, strBytes
			}
			rest = rest[4+n:]
			rowStr += n
		}
		in = rest
		rows++
		strBytes += rowStr
	}
	return rows, strBytes
}

// decodeStr decodes a part-3 field f — a null indicator when f is
// nullable, then a uint32 size and the bytes — into col. DecodeAll calls
// it directly, not through a closure in dec, so the arena stays on
// DecodeAll's stack.
func decodeStr(in []byte, f *storage.Field, col *storage.Column, arena *strings.Builder) ([]byte, error) {
	if f.Nullable {
		if len(in) < 1 {
			return nil, errTruncated(f.Name)
		}
		present := in[0] != 0
		in = in[1:]
		if !present {
			col.AppendNull()
			return in, nil
		}
	}
	if len(in) < 4 {
		return nil, errTruncated(f.Name)
	}
	n := int(binary.LittleEndian.Uint32(in))
	in = in[4:]
	if len(in) < n {
		return nil, errTruncated(f.Name)
	}
	col.AppendStr(copyStr(arena, in[:n]))
	return in[n:], nil
}

// copyStr returns b as a string that does not alias b: a substring of
// arena while arena has room for it, its own copy otherwise. DecodeAll
// sizes arena to the counted rows' string bytes, so the arena is never
// regrown and only rows past the counted ones take the second path.
func copyStr(arena *strings.Builder, b []byte) string {
	if len(b) == 0 || arena.Cap()-arena.Len() < len(b) {
		return string(b)
	}
	start := arena.Len()
	arena.Write(b)
	return arena.String()[start:]
}

// errTruncated is built when a decode fails, not per field in NewCodec:
// every compile builds codecs, few decodes fail.
func errTruncated(field string) error {
	return fmt.Errorf("ser: truncated input for field %q", field)
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

// makeDecoder returns the decoder of a fixed-size field (parts 1 and 2);
// strings (part 3) are Codec.decodeStr's.
func makeDecoder(idx int, f storage.Field) func([]byte, *storage.Batch) ([]byte, error) {
	readFixed := func(in []byte, col *storage.Column) ([]byte, error) {
		switch f.Type {
		case storage.TDate:
			if len(in) < 4 {
				return nil, errTruncated(f.Name)
			}
			col.AppendI64(int64(int32(binary.LittleEndian.Uint32(in))))
			return in[4:], nil
		case storage.TFloat64:
			if len(in) < 8 {
				return nil, errTruncated(f.Name)
			}
			col.AppendF64(f64frombits(binary.LittleEndian.Uint64(in)))
			return in[8:], nil
		default:
			if len(in) < 8 {
				return nil, errTruncated(f.Name)
			}
			col.AppendI64(int64(binary.LittleEndian.Uint64(in)))
			return in[8:], nil
		}
	}
	if !f.Nullable {
		return func(in []byte, b *storage.Batch) ([]byte, error) {
			return readFixed(in, b.Cols[idx])
		}
	}
	return func(in []byte, b *storage.Batch) ([]byte, error) {
		if len(in) < 1 {
			return nil, errTruncated(f.Name)
		}
		ind := in[0]
		in = in[1:]
		if ind == 0 {
			b.Cols[idx].AppendNull()
			return in, nil
		}
		return readFixed(in, b.Cols[idx])
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
