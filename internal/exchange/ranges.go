package exchange

import (
	"math"
	"slices"
	"sort"
)

// Zone is the closed interval [Min, Max] of one integer column's values on
// one server.
type Zone struct{ Min, Max int64 }

// RangeMap routes an integer key by its value instead of its CRC32 hash:
// server s owns the keys from Lo[s] up to, not including, Lo[s+1], and
// server 0 also every key below Lo[0]. Lo ascends; a server s > 0 whose
// Lo equals the next one's owns nothing. Routing both inputs of a join by
// one map co-locates them as a hash does, and a side already laid out in
// key order across the servers (a chunked table over its sort key) keeps
// nearly every row where it is — locality-aware routing in the spirit of
// Neo-Join (Rödiger et al., ICDE 2014).
type RangeMap struct{ Lo []int64 }

// RangeMapOf reads a map off per-server zones that lie in key order
// (z[s-1].Max ≤ z[s].Min): server s starts at z[s].Min, and server 0 also
// owns every key below it.
func RangeMapOf(z []Zone) *RangeMap {
	lo := make([]int64, len(z))
	for s := range z {
		lo[s] = z[s].Min
	}
	lo[0] = math.MinInt64
	return &RangeMap{Lo: lo}
}

// Owner returns the last server s with k ≥ Lo[s]; server 0 for a key
// below Lo[0].
func (m *RangeMap) Owner(k int64) int {
	s := sort.Search(len(m.Lo), func(i int) bool { return m.Lo[i] > k }) - 1
	return max(s, 0)
}

// Holds reports whether server s owns every key in [lo, hi].
func (m *RangeMap) Holds(s int, lo, hi int64) bool {
	return m.Owner(lo) == s && m.Owner(hi) == s
}

// Equal reports whether two maps are the same; nil, CRC32 routing, equals
// only nil.
func (m *RangeMap) Equal(o *RangeMap) bool {
	if m == nil || o == nil {
		return m == o
	}
	return slices.Equal(m.Lo, o.Lo)
}
