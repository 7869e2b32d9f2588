package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hsqp/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xab}, 100_000)}
	for i, p := range payloads {
		if err := writeFrame(w, byte(i+1), p); err != nil {
			t.Fatalf("writeFrame %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for i, p := range payloads {
		typ, got, err := readFrame(r, maxFrame)
		if err != nil {
			t.Fatalf("readFrame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %#x, want %#x", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestFrameRejectsOversizedAndTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, frameBatch, make([]byte, maxFrame)); err == nil {
		t.Fatal("oversized frame accepted on write")
	}

	// A length header beyond the reader's bound must be rejected before
	// allocation, whichever bound the reader passes.
	var hdr [5]byte
	for _, bound := range []uint32{maxRequestFrame, maxFrame} {
		binary.LittleEndian.PutUint32(hdr[:4], bound+1)
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), bound); !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("frame of %d bytes under bound %d: %v, want errFrameTooLarge", bound+1, bound, err)
		}
	}

	// Truncated payload: header promises 10 bytes, stream has 3.
	binary.LittleEndian.PutUint32(hdr[:4], 10)
	short := append(hdr[:4], 1, 2, 3)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(short)), maxFrame); err == nil {
		t.Fatal("truncated frame accepted")
	}

	// Zero-length frame (no type byte).
	binary.LittleEndian.PutUint32(hdr[:4], 0)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:4])), maxFrame); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestStringAndIntRoundTrip(t *testing.T) {
	b := putString(nil, "tenant-α/β")
	b = putU32(b, 0xdeadbeef)
	b = putU64(b, 1<<63|7)
	b = putF64(b, 0.01)

	s, rest, err := getString(b)
	if err != nil || s != "tenant-α/β" {
		t.Fatalf("getString: %q, %v", s, err)
	}
	u32, rest, err := getU32(rest)
	if err != nil || u32 != 0xdeadbeef {
		t.Fatalf("getU32: %#x, %v", u32, err)
	}
	u64, rest, err := getU64(rest)
	if err != nil || u64 != 1<<63|7 {
		t.Fatalf("getU64: %#x, %v", u64, err)
	}
	f, rest, err := getF64(rest)
	if err != nil || f != 0.01 {
		t.Fatalf("getF64: %v, %v", f, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// Corrupt string: claimed length beyond the buffer.
	if _, _, err := getString([]byte{0x7f, 'a'}); err == nil {
		t.Fatal("corrupt string accepted")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := storage.NewSchema(
		storage.Field{Name: "l_returnflag", Type: storage.TString},
		storage.Field{Name: "sum_qty", Type: storage.TDecimal},
		storage.Field{Name: "cnt", Type: storage.TInt64},
		storage.Field{Name: "maybe", Type: storage.TFloat64, Nullable: true},
	)
	got, rest, err := getSchema(putSchema(nil, s))
	if err != nil {
		t.Fatalf("getSchema: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got.Len() != s.Len() {
		t.Fatalf("%d fields, want %d", got.Len(), s.Len())
	}
	for i, f := range s.Fields {
		g := got.Fields[i]
		if g.Name != f.Name || g.Type != f.Type || g.Nullable != f.Nullable {
			t.Fatalf("field %d: %+v, want %+v", i, g, f)
		}
	}

	// Unknown column type must be rejected.
	bad := putSchema(nil, storage.NewSchema(storage.Field{Name: "x", Type: storage.TInt64}))
	bad[len(bad)-2] = 0xff
	if _, _, err := getSchema(bad); err == nil {
		t.Fatal("unknown column type accepted")
	}
}

func TestParseStatement(t *testing.T) {
	ok := map[string]int{"q1": 1, "Q12": 12, "5": 5, "q22": 22}
	for in, want := range ok {
		n, err := ParseStatement(in)
		if err != nil || n != want {
			t.Fatalf("ParseStatement(%q) = %d, %v; want %d", in, n, err, want)
		}
	}
	for _, in := range []string{"", "q0", "q23", "x7", "qq1", "q1x", "select 1"} {
		if _, err := ParseStatement(in); err == nil {
			t.Fatalf("ParseStatement(%q) accepted", in)
		} else if !strings.Contains(err.Error(), "statement") {
			t.Fatalf("ParseStatement(%q) error %q lacks context", in, err)
		}
	}
}
