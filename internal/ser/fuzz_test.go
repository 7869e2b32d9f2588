package ser

import (
	"fmt"
	"testing"
	"time"

	"hsqp/internal/storage"
)

// fuzzRNG deterministically derives values from the fuzz input: it
// consumes the input bytes first, then continues with a splitmix-style
// generator seeded by what it has read, so every input prefix yields a
// different but reproducible (schema, rows) pair.
type fuzzRNG struct {
	data []byte
	i    int
	s    uint64
}

func (r *fuzzRNG) byte() byte {
	if r.i < len(r.data) {
		b := r.data[r.i]
		r.i++
		r.s = r.s*0x9E3779B97F4A7C15 + uint64(b) + 1
		return b
	}
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return byte(r.s >> 33)
}

func (r *fuzzRNG) intn(n int) int { return int(r.byte()) % n }

var fuzzTypes = []storage.Type{
	storage.TInt64, storage.TDecimal, storage.TDate, storage.TFloat64, storage.TString,
}

// genSchema derives a random 1..6-field schema mixing fixed/varlen and
// nullable/not-null fields.
func genSchema(r *fuzzRNG) *storage.Schema {
	n := 1 + r.intn(6)
	fields := make([]storage.Field, n)
	for i := range fields {
		fields[i] = storage.Field{
			Name:     fmt.Sprintf("f%d", i),
			Type:     fuzzTypes[r.intn(len(fuzzTypes))],
			Nullable: r.intn(2) == 1,
		}
	}
	return storage.NewSchema(fields...)
}

// genBatch fills 0..8 rows with random values (including NULLs for
// nullable fields; dates stay within int32, floats avoid NaN).
func genBatch(r *fuzzRNG, schema *storage.Schema) *storage.Batch {
	rows := r.intn(9)
	b := storage.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		vals := make([]any, schema.Len())
		for c, f := range schema.Fields {
			if f.Nullable && r.intn(4) == 0 {
				vals[c] = nil
				continue
			}
			switch f.Type {
			case storage.TFloat64:
				vals[c] = float64(int64(uint64(r.byte())<<8|uint64(r.byte()))-32768) * 0.25
			case storage.TDate:
				vals[c] = int64(int32(uint32(r.byte())<<24 | uint32(r.byte())<<8 | uint32(r.byte())))
			case storage.TString:
				s := make([]byte, r.intn(20))
				for j := range s {
					s[j] = r.byte()
				}
				vals[c] = string(s)
			default: // int64, decimal
				v := int64(uint64(r.byte())<<56|uint64(r.byte())<<32|uint64(r.byte())<<16) - (1 << 55)
				vals[c] = v
			}
		}
		b.AppendRow(vals...)
	}
	return b
}

// FuzzCodecRoundTrip checks the two wire-format invariants over random
// schemas (nullable/varlen mixes) and random rows:
//
//  1. encode → DecodeAll round-trips every value;
//  2. DecodeAll of a truncated buffer errors at EVERY prefix length that
//     does not fall exactly on a row boundary, and decodes exactly the
//     whole rows when it does (no infinite loop, no partial row);
//  3. a destination DecodeAll has to size itself (fresh, no capacity)
//     gives the rows and the error a pre-sized one gives, counts the rows
//     and their string bytes exactly before decoding them, and never
//     reserves more than len(in)/minRowBytes rows or len(in) string bytes
//     — also when the fuzz input itself is fed in as a hostile peer's
//     bytes;
//  4. decoded values do not alias the input: scribbling over it after
//     the round trip, as a recycled pool buffer is, changes none of them.
func FuzzCodecRoundTrip(f *testing.F) {
	// Seed corpus: empty, short, and structured inputs covering the
	// all-fixed, all-varlen, and mixed schema shapes.
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff})
	f.Add([]byte("nullable varlen mixes"))
	f.Add([]byte{4, 1, 4, 1, 3, 0, 3, 0, 2, 1, 8, 255, 255, 255, 255, 0, 0, 0, 0})
	// Fixed-width, nullable-only and string-only schemas, and inputs
	// that read as wire bytes whose length fields lie (4 GB, 2 GB, one
	// byte more than follows) or stop mid-field.
	f.Add([]byte{1, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{2, 2, 1, 3, 1, 1, 0, 1, 7, 7, 7, 7})
	f.Add([]byte{0, 4, 0, 0xff, 0xff, 0xff, 0xff, 'a', 'b', 'c'})
	f.Add([]byte{0, 4, 0, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 4, 1, 1, 4, 0, 0, 0, 'a', 'b', 'c'})
	f.Add([]byte{1, 4, 0, 2, 0, 0, 0, 'h', 'i', 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzRNG{data: data}
		schema := genSchema(r)
		in := genBatch(r, schema)
		c := NewCodec(schema)

		// Encode, recording the row boundaries.
		var buf []byte
		boundaries := map[int]int{0: 0} // byte offset → rows before it
		for i := 0; i < in.Rows(); i++ {
			if got, want := c.RowSize(in, i), len(c.EncodeRow(in, i, nil)); got != want {
				t.Fatalf("row %d: RowSize %d != encoded size %d", i, got, want)
			}
			buf = c.EncodeRow(in, i, buf)
			boundaries[len(buf)] = i + 1
		}

		// Full round trip.
		out := storage.NewBatch(schema, in.Rows())
		n, err := c.DecodeAll(buf, out)
		if err != nil {
			t.Fatalf("decode of intact buffer failed: %v", err)
		}
		if n != in.Rows() {
			t.Fatalf("decoded %d rows, want %d", n, in.Rows())
		}
		sameValues := func(when string) {
			t.Helper()
			for i := 0; i < in.Rows(); i++ {
				for col := range in.Cols {
					if in.Cols[col].Value(i) != out.Cols[col].Value(i) {
						t.Fatalf("%s: row %d col %d: %v != %v", when, i, col,
							in.Cols[col].Value(i), out.Cols[col].Value(i))
					}
				}
			}
		}
		sameValues("round trip")

		if rows, str := c.countRows(buf); rows != in.Rows() || str != wholeRowStrBytes(in, in.Rows()) {
			t.Fatalf("countRows = %d rows, %d string bytes over %d encoded rows with %d", rows, str, in.Rows(), wholeRowStrBytes(in, in.Rows()))
		}
		sameAsPresized(t, c, buf, in.Rows())

		// Truncation: every non-boundary prefix must error; boundary
		// prefixes must decode exactly the whole rows before them.
		for p := 0; p < len(buf); p++ {
			dst := storage.NewBatch(schema, in.Rows())
			n, err := c.DecodeAll(buf[:p], dst)
			sameAsPresized(t, c, buf[:p], in.Rows())
			if rows, ok := boundaries[p]; ok {
				if err != nil {
					t.Fatalf("prefix %d is a row boundary but errored: %v", p, err)
				}
				if n != rows {
					t.Fatalf("prefix %d decoded %d rows, want %d", p, n, rows)
				}
			} else if err == nil {
				t.Fatalf("prefix %d of %d decoded %d rows without error; want truncation error", p, len(buf), n)
			}
		}

		// The input as a peer's bytes: whatever they are, no panic, and
		// the self-sizing path agrees with the pre-sized one.
		sameAsPresized(t, c, data, len(data))

		for i := range buf {
			buf[i] = ^buf[i]
		}
		sameValues("after the input was overwritten")
	})
}

// sameAsPresized decodes wire into a destination with room for `room`
// rows — which DecodeAll never has to grow when room covers the input —
// and into a fresh one it must size itself, and requires the same rows,
// the same error, the same values, a row count (what DecodeAll reserves)
// within len(wire)/minRowBytes and a string arena within len(wire), and a
// fresh destination that ends exactly full — or, on malformed input, with
// what append made of a full column when the failing row's first fields
// landed in it.
func sameAsPresized(t *testing.T, c *Codec, wire []byte, room int) {
	t.Helper()
	presized, fresh := storage.NewBatch(c.schema, room), storage.NewBatch(c.schema, 0)
	wantN, wantErr := c.DecodeAll(wire, presized)
	gotN, gotErr := c.DecodeAll(wire, fresh)
	if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("fresh destination: %d rows, %v; pre-sized: %d rows, %v", gotN, gotErr, wantN, wantErr)
	}
	for i := 0; i < gotN; i++ {
		for col := range fresh.Cols {
			// Compared as text: hostile bytes may decode to NaN.
			if fmt.Sprint(fresh.Cols[col].Value(i)) != fmt.Sprint(presized.Cols[col].Value(i)) {
				t.Fatalf("row %d col %d: fresh %v, pre-sized %v", i, col,
					fresh.Cols[col].Value(i), presized.Cols[col].Value(i))
			}
		}
	}
	if c.minRowBytes == 0 {
		return
	}
	most := len(wire) / c.minRowBytes
	if got, str := c.countRows(wire); got > most || str > len(wire) {
		t.Fatalf("countRows = %d rows, %d string bytes; %d input bytes fit at most %d rows", got, str, len(wire), most)
	}
	for col, column := range fresh.Cols {
		if gotErr == nil && column.Room() != 0 {
			t.Fatalf("col %d: %d rows decoded into a fresh destination left room for %d more", col, gotN, column.Room())
		}
		if got := column.Len() + column.Room(); got > 3*most+8 {
			t.Fatalf("col %d reserved %d rows for %d input bytes (at most %d rows fit)", col, got, len(wire), most)
		}
	}
}

// TestDecodeAllNoProgress: a codec over a schema with no decodable fields
// cannot consume input; a non-empty buffer must produce an error, not an
// infinite loop.
func TestDecodeAllNoProgress(t *testing.T) {
	schema := storage.NewSchema()
	c := NewCodec(schema)
	dst := storage.NewBatch(schema, 0)
	done := make(chan struct{})
	var n int
	var err error
	go func() {
		n, err = c.DecodeAll([]byte{1, 2, 3}, dst)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DecodeAll hangs on a schema with no decodable fields")
	}
	if err == nil {
		t.Fatalf("decoded %d rows from undecodable input without error", n)
	}
}
