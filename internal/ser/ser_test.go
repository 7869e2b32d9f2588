package ser

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"hsqp/internal/memory"
	"hsqp/internal/numa"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

func partsuppBatch() *storage.Batch {
	// The Figure 8 example relation.
	b := storage.NewBatch(tpch.PartSuppSchema(), 3)
	b.AppendRow(int64(1), int64(2), int64(100), int64(5000), "carefully final deposits")
	b.AppendRow(int64(7), int64(9), int64(0), int64(1), "")
	b.AppendRow(int64(3), int64(4), int64(9999), int64(99999), "x")
	return b
}

func TestRoundTripPartsupp(t *testing.T) {
	b := partsuppBatch()
	c := NewCodec(b.Schema)
	var buf []byte
	for i := 0; i < b.Rows(); i++ {
		if got, want := c.RowSize(b, i), len(c.EncodeRow(b, i, nil)); got != want {
			t.Fatalf("row %d: RowSize %d != encoded %d", i, got, want)
		}
		buf = c.EncodeRow(b, i, buf)
	}
	out := storage.NewBatch(b.Schema, b.Rows())
	n, err := c.DecodeAll(buf, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != b.Rows() {
		t.Fatalf("decoded %d rows, want %d", n, b.Rows())
	}
	for i := 0; i < b.Rows(); i++ {
		for col := range b.Cols {
			if b.Cols[col].Value(i) != out.Cols[col].Value(i) {
				t.Fatalf("row %d col %d: %v != %v", i, col, b.Cols[col].Value(i), out.Cols[col].Value(i))
			}
		}
	}
}

func TestRoundTripNullable(t *testing.T) {
	schema := storage.NewSchema(
		storage.Field{Name: "id", Type: storage.TInt64},
		storage.Field{Name: "opt", Type: storage.TDecimal, Nullable: true},
		storage.Field{Name: "d", Type: storage.TDate, Nullable: true},
		storage.Field{Name: "s", Type: storage.TString, Nullable: true},
		storage.Field{Name: "f", Type: storage.TFloat64},
	)
	b := storage.NewBatch(schema, 3)
	b.AppendRow(int64(1), nil, int64(9000), "hello", 1.25)
	b.AppendRow(int64(2), int64(-42), nil, nil, math.Inf(1))
	b.AppendRow(int64(3), int64(0), int64(0), "", -0.0)

	c := NewCodec(schema)
	var buf []byte
	for i := 0; i < b.Rows(); i++ {
		buf = c.EncodeRow(b, i, buf)
	}
	out := storage.NewBatch(schema, 3)
	if _, err := c.DecodeAll(buf, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Rows(); i++ {
		for col := range b.Cols {
			if b.Cols[col].Value(i) != out.Cols[col].Value(i) {
				t.Fatalf("row %d col %d: %v != %v", i, col, b.Cols[col].Value(i), out.Cols[col].Value(i))
			}
		}
	}
}

func TestDenseLayout(t *testing.T) {
	// Fixed NOT NULL attributes serialize with zero per-field overhead:
	// the partsupp row of Figure 8 has 4 fixed fields (8 bytes each) plus
	// one varchar (4-byte length prefix).
	b := partsuppBatch()
	c := NewCodec(b.Schema)
	comment := b.Cols[4].Str[0]
	want := 4*8 + 4 + len(comment)
	if got := c.RowSize(b, 0); got != want {
		t.Fatalf("row size %d, want %d (densely packed)", got, want)
	}
}

func TestTruncatedInputFails(t *testing.T) {
	b := partsuppBatch()
	c := NewCodec(b.Schema)
	buf := c.EncodeRow(b, 0, nil)
	for cut := 1; cut < len(buf); cut += 7 {
		out := storage.NewBatch(b.Schema, 1)
		if _, err := c.DecodeAll(buf[:len(buf)-cut], out); err == nil {
			t.Fatalf("truncation by %d bytes not detected", cut)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	schema := storage.NewSchema(
		storage.Field{Name: "a", Type: storage.TInt64},
		storage.Field{Name: "b", Type: storage.TString},
		storage.Field{Name: "c", Type: storage.TDecimal, Nullable: true},
	)
	c := NewCodec(schema)
	f := func(a int64, s string, d int64, null bool) bool {
		b := storage.NewBatch(schema, 1)
		if null {
			b.AppendRow(a, s, nil)
		} else {
			b.AppendRow(a, s, d)
		}
		buf := c.EncodeRow(b, 0, nil)
		out := storage.NewBatch(schema, 1)
		if _, err := c.DecodeAll(buf, out); err != nil {
			return false
		}
		return out.Cols[0].Value(0) == b.Cols[0].Value(0) &&
			out.Cols[1].Value(0) == b.Cols[1].Value(0) &&
			out.Cols[2].Value(0) == b.Cols[2].Value(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllTPCHSchemasRoundTrip(t *testing.T) {
	db := tpch.Generate(0.001, 7)
	for name, batch := range db.Tables {
		c := NewCodec(batch.Schema)
		rows := min(batch.Rows(), 200)
		var buf []byte
		for i := 0; i < rows; i++ {
			buf = c.EncodeRow(batch, i, buf)
		}
		out := storage.NewBatch(batch.Schema, rows)
		n, err := c.DecodeAll(buf, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != rows {
			t.Fatalf("%s: decoded %d, want %d", name, n, rows)
		}
		for i := 0; i < rows; i++ {
			for col := range batch.Cols {
				if batch.Cols[col].Value(i) != out.Cols[col].Value(i) {
					t.Fatalf("%s row %d col %d mismatch", name, i, col)
				}
			}
		}
	}
}

// sizingSchemas are the three shapes DecodeAll sizes differently: every
// row the same width (a division), nullable fixed fields and strings (a
// walk over the row boundaries).
var sizingSchemas = map[string]*storage.Schema{
	"fixed": storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "d", Type: storage.TDate},
		storage.Field{Name: "f", Type: storage.TFloat64},
		storage.Field{Name: "m", Type: storage.TDecimal},
	),
	"nullable": storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "d", Type: storage.TDate, Nullable: true},
		storage.Field{Name: "f", Type: storage.TFloat64, Nullable: true},
	),
	"string": storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "tag", Type: storage.TString},
		storage.Field{Name: "note", Type: storage.TString, Nullable: true},
	),
}

// sizingRows encodes n rows of the named schema.
func sizingRows(name string, n int) (*Codec, []byte) {
	schema := sizingSchemas[name]
	b := storage.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		switch name {
		case "fixed":
			b.AppendRow(int64(i), int64(i%365), float64(i)/4, int64(i*100))
		case "nullable":
			var d, f any
			if i%3 != 0 {
				d = int64(i)
			}
			if i%5 != 0 {
				f = float64(i)
			}
			b.AppendRow(int64(i), d, f)
		default:
			var note any
			if i%2 == 0 {
				note = storage.FormatDate(int64(i))
			}
			b.AppendRow(int64(i), storage.FormatDate(int64(i * 31))[:i%11], note)
		}
	}
	c := NewCodec(schema)
	var wire []byte
	for i := 0; i < n; i++ {
		wire = c.EncodeRow(b, i, wire)
	}
	return c, wire
}

// TestDecodeAllSizesFreshDestinationExactly: the rows counted before
// decoding are the rows decoded, and a destination that starts empty ends
// with cap == len in every column — one allocation per column, no
// append-doubling under the decoders.
func TestDecodeAllSizesFreshDestinationExactly(t *testing.T) {
	for name := range sizingSchemas {
		const rows = 1000
		c, wire := sizingRows(name, rows)
		if got, _ := c.countRows(wire); got != rows {
			t.Fatalf("%s: countRows = %d, encoded %d", name, got, rows)
		}
		dst := storage.NewBatch(c.Schema(), 0)
		if n, err := c.DecodeAll(wire, dst); err != nil || n != rows {
			t.Fatalf("%s: DecodeAll = %d, %v", name, n, err)
		}
		for i, col := range dst.Cols {
			if col.Len() != rows || col.Room() != 0 {
				t.Fatalf("%s col %d: len %d, room for %d more; want exactly %d", name, i, col.Len(), col.Room(), rows)
			}
		}
		// A second message appended to the same batch grows it once more,
		// again exactly.
		if _, err := c.DecodeAll(wire, dst); err != nil {
			t.Fatal(err)
		}
		for i, col := range dst.Cols {
			if col.Len() != 2*rows || col.Room() != 0 {
				t.Fatalf("%s col %d after a second message: len %d, room %d", name, i, col.Len(), col.Room())
			}
		}
	}
}

// TestDecodeAllMalformedInput: truncated buffers and length fields that
// lie fail with the decoder's own error — the text is what it was before
// DecodeAll counted rows — and whatever the bytes claim, it reserves no
// more rows than fit in len(in) bytes and no more string bytes than the
// whole rows carry.
func TestDecodeAllMalformedInput(t *testing.T) {
	fixed, fixedWire := sizingRows("fixed", 100)
	str, strWire := sizingRows("string", 100)
	lying := func(claim uint32) []byte {
		// 50 good rows, then a row whose tag claims `claim` bytes.
		_, wire := sizingRows("string", 50)
		wire = append(wire, 1, 2, 3, 4, 5, 6, 7, 8)
		return append(wire, byte(claim), byte(claim>>8), byte(claim>>16), byte(claim>>24), 'x')
	}
	for _, c := range []struct {
		name    string
		codec   *Codec
		in      []byte
		rows    int
		wantErr string
	}{
		{"fixed, cut mid-row", fixed, fixedWire[:len(fixedWire)-5], 99, `ser: row 99: ser: truncated input for field "m"`},
		{"fixed, one stray byte", fixed, append(fixedWire[:len(fixedWire):len(fixedWire)], 7), 100, `ser: row 100: ser: truncated input for field "k"`},
		{"string, cut in the last note", str, strWire[:len(strWire)-1], 99, `ser: row 99: ser: truncated input for field "note"`},
		{"string, tag claims 4 GB", str, lying(0xffffffff), 50, `ser: row 50: ser: truncated input for field "tag"`},
		{"string, tag claims 2 GB", str, lying(0x7fffffff), 50, `ser: row 50: ser: truncated input for field "tag"`},
		{"string, tag claims one byte too many", str, lying(2), 50, `ser: row 50: ser: truncated input for field "tag"`},
	} {
		dst := storage.NewBatch(c.codec.Schema(), 0)
		n, err := c.codec.DecodeAll(c.in, dst)
		if n != c.rows || err == nil || err.Error() != c.wantErr {
			t.Errorf("%s: DecodeAll = %d, %v; want %d, %s", c.name, n, err, c.rows, c.wantErr)
		}
		most := len(c.in) / c.codec.minRowBytes
		got, strBytes := c.codec.countRows(c.in)
		if got != c.rows || got > most {
			t.Errorf("%s: countRows = %d, want the %d whole rows (%d input bytes fit at most %d)", c.name, got, c.rows, len(c.in), most)
		}
		if want := wholeRowStrBytes(dst, c.rows); strBytes != want || strBytes > len(c.in) {
			t.Errorf("%s: arena of %d bytes for %d input bytes; the %d whole rows carry %d", c.name, strBytes, len(c.in), c.rows, want)
		}
		for i, col := range dst.Cols {
			// The failing row's first fields land in full columns, which
			// append then grows by its own rule: still O(len(in)).
			if got := col.Len() + col.Room(); got > 3*most {
				t.Errorf("%s: col %d holds room for %d rows, %d input bytes fit at most %d", c.name, i, got, len(c.in), most)
			}
		}
	}
}

// wholeRowStrBytes sums the string bytes of b's first rows.
func wholeRowStrBytes(b *storage.Batch, rows int) int {
	n := 0
	for _, col := range b.Cols {
		if col.Type == storage.TString {
			for _, s := range col.Str[:rows] {
				n += len(s)
			}
		}
	}
	return n
}

// TestDecodedStringsOutliveTheirMessage: the exchange releases a message
// to the pool as soon as it is decoded, and the pool hands the same
// buffer to the next sender, who overwrites it. Decoded strings must not
// notice.
func TestDecodedStringsOutliveTheirMessage(t *testing.T) {
	c, wire := sizingRows("string", 200)
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, len(wire), nil)
	msg := pool.Get(0)
	msg.Content = append(msg.Content, wire...)
	dst := storage.NewBatch(c.Schema(), 0)
	if _, err := c.DecodeAll(msg.Content, dst); err != nil {
		t.Fatal(err)
	}
	want := make([][]any, dst.Rows())
	for i := range want {
		want[i] = dst.Row(i)
	}
	msg.Release()
	next := pool.Get(0)
	if next != msg {
		t.Fatal("the pool did not recycle the decoded message's buffer")
	}
	_, other := sizingRows("string", 300)
	next.Content = append(next.Content, other[:len(wire)]...)
	for i := range want {
		for col, v := range dst.Row(i) {
			if v != want[i][col] {
				t.Fatalf("row %d col %d read %v after the buffer was recycled, decoded %v", i, col, v, want[i][col])
			}
		}
	}
	next.Release()
}

// strSpan is the address range the non-empty strings of rows [lo,hi) of
// b cover, and how many bytes they hold.
func strSpan(b *storage.Batch, lo, hi int) (first, end uintptr, bytes int) {
	first = ^uintptr(0)
	for _, col := range b.Cols {
		if col.Type != storage.TString {
			continue
		}
		for _, s := range col.Str[lo:hi] {
			if s == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			first, end = min(first, p), max(end, p+uintptr(len(s)))
			bytes += len(s)
		}
	}
	return first, end, bytes
}

// TestDecodeAllOneArenaPerMessage: a message's strings are copied into one
// buffer exactly their size, outside the message; a second message
// decoded into the same batch gets its own.
func TestDecodeAllOneArenaPerMessage(t *testing.T) {
	const rows = 300
	c, wire := sizingRows("string", rows)
	dst := storage.NewBatch(c.Schema(), 0)
	wireLo := uintptr(unsafe.Pointer(unsafe.SliceData(wire)))
	wireHi := wireLo + uintptr(len(wire))
	var spans [2][2]uintptr
	for m := range spans {
		if _, err := c.DecodeAll(wire, dst); err != nil {
			t.Fatal(err)
		}
		first, end, total := strSpan(dst, m*rows, (m+1)*rows)
		if got := int(end - first); got != total {
			t.Errorf("message %d: %d string bytes span %d bytes, want one arena of exactly their size", m, total, got)
		}
		if first < wireHi && wireLo < end {
			t.Errorf("message %d: decoded strings alias the input buffer", m)
		}
		spans[m] = [2]uintptr{first, end}
	}
	if spans[0][0] < spans[1][1] && spans[1][0] < spans[0][1] {
		t.Errorf("two messages decoded into one batch share an arena: %x-%x and %x-%x",
			spans[0][0], spans[0][1], spans[1][0], spans[1][1])
	}
}

// BenchmarkDecodeAll decodes lineitem at SF 0.01 — the widest relation,
// three string columns — into a fresh destination, as the exchange does
// per message: `go test -run '^$' -bench DecodeAll ./internal/ser`.
func BenchmarkDecodeAll(b *testing.B) {
	li := tpch.Generate(0.01, 1).Tables["lineitem"]
	c := NewCodec(li.Schema)
	var wire []byte
	for i := 0; i < li.Rows(); i++ {
		wire = c.EncodeRow(li, i, wire)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.DecodeAll(wire, storage.NewBatch(li.Schema, 0)); err != nil {
			b.Fatal(err)
		}
	}
}
