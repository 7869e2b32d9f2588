package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

func le8(v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return buf[:]
}

// TestHashKernelsMatchCRC32: the table-driven kernels compute exactly
// what hash/crc32 computes — CRC32-C over a fixed-width value's 8
// little-endian bytes, CRC32 (IEEE) over a string's bytes — so replacing
// the library calls moved no tuple to another partition.
func TestHashKernelsMatchCRC32(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	rng := rand.New(rand.NewSource(1))
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	for i := 0; i < 10000; i++ {
		ints = append(ints, int64(rng.Uint64()))
	}
	for _, v := range ints {
		if got, want := HashI64(v), crc32.Checksum(le8(uint64(v)), castagnoli); got != want {
			t.Fatalf("HashI64(%d) = %#x, crc32 says %#x", v, got, want)
		}
	}
	floats := NewColumn(TFloat64, false, 0)
	for i := 0; i < 10000; i++ {
		floats.AppendF64((rng.Float64() - 0.5) * 1e7)
	}
	for i, f := range floats.F64 {
		want := crc32.Checksum(le8(uint64(int64(f*1e6))), castagnoli)
		if got := HashColValue(floats, i); got != want {
			t.Fatalf("HashColValue(float %v) = %#x, crc32 says %#x", f, got, want)
		}
	}
	for i := 0; i < 10000; i++ {
		raw := make([]byte, rng.Intn(64))
		rng.Read(raw)
		s := string(raw)
		if got, want := HashStr(s), crc32.ChecksumIEEE(raw); got != want {
			t.Fatalf("HashStr(%q) = %#x, crc32 says %#x", s, got, want)
		}
	}
}

// TestHashGolden pins values taken from the commit that still called
// hash/crc32 per key: routing, group order and wire bytes depend on them.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		v    int64
		want uint32
	}{
		{0, 0x8c28b28a},
		{1, 0xc514cfad},
		{-1, 0x48674bc7},
		{42, 0x516b2987},
		{2147483648, 0xe28a67d6},
		{math.MaxInt64, 0xca9170bf},
		{math.MinInt64, 0x0ede89f2},
		{19980902, 0x3720febe},
		{0x0123456789abcdef, 0x65b0d823},
	} {
		if got := HashI64(c.v); got != c.want {
			t.Errorf("HashI64(%d) = %#08x, want %#08x", c.v, got, c.want)
		}
	}
	for _, c := range []struct {
		s    string
		want uint32
	}{
		{"", 0x00000000},
		{"a", 0xe8b7be43},
		{"MAIL", 0x67b341fc},
		{"REG AIR", 0xe9d4b43b},
		{"Customer#000000001", 0x00db93bc},
		{"the quick brown fox jumps over the lazy dog", 0xce0c5114},
	} {
		if got := HashStr(c.s); got != c.want {
			t.Errorf("HashStr(%q) = %#08x, want %#08x", c.s, got, c.want)
		}
	}
	floats := NewColumn(TFloat64, false, 4)
	for i, c := range []struct {
		f    float64
		want uint32
	}{
		{0, 0x8c28b28a},
		{0.05, 0x25820cda},
		{-1.5, 0xcd81d07e},
		{12345.678901, 0x1ebde8d7},
	} {
		floats.AppendF64(c.f)
		if got := HashColValue(floats, i); got != c.want {
			t.Errorf("HashColValue(float %v) = %#08x, want %#08x", c.f, got, c.want)
		}
	}
	null := NewColumn(TInt64, true, 1)
	null.AppendNull()
	if got := HashColValue(null, 0); got != 0x811c9dc5 {
		t.Errorf("HashColValue(NULL) = %#08x", got)
	}
	b := NewBatch(NewSchema(Field{Name: "k", Type: TInt64}, Field{Name: "s", Type: TString},
		Field{Name: "f", Type: TFloat64}), 1)
	b.AppendRow(int64(7), "SHIP", 2.5)
	if got := HashRow(b, []int{0, 1, 2}, 0); got != 0x5344e089 {
		t.Errorf("HashRow(7, SHIP, 2.5) = %#08x, want 0x5344e089", got)
	}
}

// hashTestBatch has one column of every hashed shape: int, date, decimal,
// float, string, and nullable int / string / float with a third of their
// rows NULL.
func hashTestBatch(rng *rand.Rand, n int) *Batch {
	b := NewBatch(NewSchema(
		Field{Name: "i", Type: TInt64},
		Field{Name: "d", Type: TDate},
		Field{Name: "m", Type: TDecimal},
		Field{Name: "f", Type: TFloat64},
		Field{Name: "s", Type: TString},
		Field{Name: "ni", Type: TInt64, Nullable: true},
		Field{Name: "ns", Type: TString, Nullable: true},
		Field{Name: "nf", Type: TFloat64, Nullable: true},
	), n)
	words := []string{"", "MAIL", "SHIP", "REG AIR", "TRUCK", "a longer string than the others"}
	maybe := func(v any) any {
		if rng.Intn(3) == 0 {
			return nil
		}
		return v
	}
	for r := 0; r < n; r++ {
		b.AppendRow(int64(rng.Uint64()), int64(rng.Intn(10000)), int64(rng.Intn(1e6)), rng.NormFloat64()*1e3,
			words[rng.Intn(len(words))], maybe(int64(rng.Intn(50))), maybe(words[rng.Intn(len(words))]),
			maybe(rng.Float64()))
	}
	return b
}

// TestHashRowsMatchesHashRow: the batch form is the row form, for every
// column shape, with zero, one and three key columns, into a nil, a too
// short and a reused vector.
func TestHashRowsMatchesHashRow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var reused []uint32
	for round := 0; round < 20; round++ {
		b := hashTestBatch(rng, rng.Intn(300))
		keySets := [][]int{nil, {0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {4, 0, 6}, {5, 3, 1}, {7, 2, 4}}
		for _, keys := range keySets {
			fresh := HashRows(b, keys, nil)
			reused = HashRows(b, keys, reused)
			if len(fresh) != b.Rows() || len(reused) != b.Rows() {
				t.Fatalf("keys %v: %d / %d hashes for %d rows", keys, len(fresh), len(reused), b.Rows())
			}
			for i := range fresh {
				want := HashRow(b, keys, i)
				if fresh[i] != want || reused[i] != want {
					t.Fatalf("keys %v row %d: HashRows %#x (reused %#x), HashRow %#x", keys, i, fresh[i], reused[i], want)
				}
			}
		}
	}
}
