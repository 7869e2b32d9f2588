package storage

import "hash/crc32"

// The decoupled exchange operator partitions tuples "according to the
// CRC32 hash value of the join attributes" (§3.2). HyPer issues one SSE4.2
// CRC32 instruction per key; hash/crc32 reaches that instruction only
// through an indirect call that makes its []byte argument escape — one
// heap allocation per key. The kernels below are table-driven plain Go
// instead: the same CRC values (every server must agree on them, and
// routing must not move), no slice, no allocation. hash/crc32 only builds
// the tables; hash_test.go pins the values against it.
//
// castagnoli8 is the slicing-by-8 table set of CRC32-C: an 8-byte key
// costs eight independent lookups instead of eight dependent ones.
var castagnoli8 = slicing8(crc32.MakeTable(crc32.Castagnoli))

func slicing8(t0 *crc32.Table) *[8][256]uint32 {
	var t [8][256]uint32
	t[0] = *t0
	for i := 0; i < 256; i++ {
		crc := t[0][i]
		for k := 1; k < 8; k++ {
			crc = t[0][crc&0xff] ^ (crc >> 8)
			t[k][i] = crc
		}
	}
	return &t
}

// hashU64 is CRC32-C over the 8 little-endian bytes of v.
func hashU64(v uint64) uint32 {
	t := castagnoli8
	lo, hi := ^uint32(v), uint32(v>>32)
	return ^(t[7][lo&0xff] ^ t[6][(lo>>8)&0xff] ^ t[5][(lo>>16)&0xff] ^ t[4][lo>>24] ^
		t[3][hi&0xff] ^ t[2][(hi>>8)&0xff] ^ t[1][(hi>>16)&0xff] ^ t[0][hi>>24])
}

// HashI64 hashes one 64-bit value.
func HashI64(v int64) uint32 { return hashU64(uint64(v)) }

// hashF64 hashes a float by its value in millionths.
func hashF64(f float64) uint32 { return hashU64(uint64(int64(f * 1e6))) }

// HashStr hashes a string: CRC32 over its bytes with the IEEE polynomial
// (not Castagnoli like the fixed-width types — changing it would re-route
// every string-keyed exchange).
func HashStr(s string) uint32 {
	t := crc32.IEEETable
	crc := ^uint32(0)
	for i := 0; i < len(s); i++ {
		crc = t[byte(crc)^s[i]] ^ (crc >> 8)
	}
	return ^crc
}

// nullHash is the hash of a NULL of any type.
const nullHash = 0x811c9dc5

// HashCombine mixes a new column hash into an accumulated hash
// (multi-attribute keys).
func HashCombine(acc, h uint32) uint32 {
	// Boost-style combine keeps both inputs influential.
	return acc ^ (h + 0x9e3779b9 + (acc << 6) + (acc >> 2))
}

// HashColValue hashes row i of a column.
func HashColValue(c *Column, i int) uint32 {
	if c.IsNull(i) {
		return nullHash
	}
	switch c.Type {
	case TString:
		return HashStr(c.Str[i])
	case TFloat64:
		return hashF64(c.F64[i])
	default:
		return HashI64(c.I64[i])
	}
}

// HashRow hashes the given key columns of row i of a batch. An empty key
// list hashes to a constant: key-less joins degenerate to nested loops
// over one bucket (scalar cross joins).
func HashRow(b *Batch, keys []int, i int) uint32 {
	if len(keys) == 0 {
		return 0
	}
	h := HashColValue(b.Cols[keys[0]], i)
	for _, k := range keys[1:] {
		h = HashCombine(h, HashColValue(b.Cols[k], i))
	}
	return h
}

// HashRows is HashRow for every row of b at once: out[i] == HashRow(b,
// keys, i). It works a column at a time, so the type dispatch happens per
// key column instead of per value. out is reused when it has the capacity
// (callers keep one vector per worker) and the result has b.Rows()
// elements.
func HashRows(b *Batch, keys []int, out []uint32) []uint32 {
	n := b.Rows()
	if cap(out) < n {
		out = make([]uint32, n)
	}
	out = out[:n]
	if len(keys) == 0 {
		clear(out)
		return out
	}
	for k, key := range keys {
		hashCol(b.Cols[key], out, k == 0)
	}
	return out
}

// hashCol writes (first) or combines (!first) the hashes of c's first
// len(out) values into out.
func hashCol(c *Column, out []uint32, first bool) {
	put := func(i int, h uint32) {
		if first {
			out[i] = h
		} else {
			out[i] = HashCombine(out[i], h)
		}
	}
	switch {
	case c.Nullable:
		for i := range out {
			put(i, HashColValue(c, i))
		}
	case c.Type == TString:
		for i, s := range c.Str[:len(out)] {
			put(i, HashStr(s))
		}
	case c.Type == TFloat64:
		for i, f := range c.F64[:len(out)] {
			put(i, hashF64(f))
		}
	default:
		for i, v := range c.I64[:len(out)] {
			put(i, HashI64(v))
		}
	}
}

// PartitionOf maps a hash to one of n partitions.
func PartitionOf(h uint32, n int) int {
	// Multiply-shift avoids the modulo's bias toward low partitions for
	// small n and is cheaper than %.
	return int(uint64(h) * uint64(n) >> 32)
}
