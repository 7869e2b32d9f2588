package exchange

import (
	"fmt"
	"math"
	"testing"
)

// TestRangeMapOwner: a key goes to the last server whose Lo it reaches,
// at every boundary, and to server 0 below Lo[0].
func TestRangeMapOwner(t *testing.T) {
	m := &RangeMap{Lo: []int64{10, 20, 30}}
	for _, c := range []struct {
		k    int64
		want int
	}{
		{math.MinInt64, 0}, {9, 0}, {10, 0}, {19, 0},
		{20, 1}, {21, 1}, {29, 1},
		{30, 2}, {31, 2}, {math.MaxInt64, 2},
	} {
		if got := m.Owner(c.k); got != c.want {
			t.Errorf("Owner(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// TestRangeMapNonStrict: under a non-strict Lo a server whose Lo equals
// the next one's owns nothing: no key routes to it, and Holds denies it
// every key.
func TestRangeMapNonStrict(t *testing.T) {
	m := &RangeMap{Lo: []int64{math.MinInt64, 20, 20, 40}}
	for k := int64(-5); k < 60; k++ {
		if m.Owner(k) == 1 {
			t.Fatalf("Owner(%d) = 1, but server 1 owns nothing", k)
		}
	}
	for _, c := range []struct {
		k    int64
		want int
	}{{19, 0}, {20, 2}, {39, 2}, {40, 3}} {
		if got := m.Owner(c.k); got != c.want {
			t.Errorf("Owner(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	if m.Holds(1, 20, 20) || m.Holds(1, math.MinInt64, math.MaxInt64) {
		t.Error("Holds grants server 1 a key it does not own")
	}
}

// TestRangeMapHolds: Holds(s, k, k) holds exactly when Owner(k) == s, and
// an interval is held only when both its ends are.
func TestRangeMapHolds(t *testing.T) {
	for _, lo := range [][]int64{{0, 10, 20}, {math.MinInt64, 5, 5, 9}, {7}} {
		m := &RangeMap{Lo: lo}
		for k := int64(-3); k < 25; k++ {
			for s := range lo {
				if got, want := m.Holds(s, k, k), m.Owner(k) == s; got != want {
					t.Errorf("Lo %v: Holds(%d, %d, %d) = %t, Owner = %d", lo, s, k, k, got, m.Owner(k))
				}
			}
		}
	}
	m := &RangeMap{Lo: []int64{0, 10, 20}}
	if !m.Holds(1, 10, 19) || m.Holds(1, 10, 20) || m.Holds(1, 9, 19) {
		t.Error("Holds(1, ...) does not follow server 1's interval [10, 19]")
	}
}

// TestRangeMapOf: a map read off zones in key order keeps every server's
// rows where they are when the zones are disjoint, and routes the keys a
// touching boundary shares to the later server.
func TestRangeMapOf(t *testing.T) {
	z := []Zone{{3, 9}, {10, 19}, {25, 40}}
	m := RangeMapOf(z)
	for s, zs := range z {
		if !m.Holds(s, zs.Min, zs.Max) {
			t.Errorf("server %d's zone %v does not fit %v", s, zs, m.Lo)
		}
	}
	if !m.Equal(&RangeMap{Lo: []int64{math.MinInt64, 10, 25}}) || m.Equal(&RangeMap{Lo: []int64{math.MinInt64, 10, 26}}) || m.Equal(nil) {
		t.Errorf("read off %v: Lo %v, want [MinInt64 10 25]", z, m.Lo)
	}
	touch := RangeMapOf([]Zone{{3, 10}, {10, 19}})
	if touch.Holds(0, 3, 10) || touch.Owner(10) != 1 {
		t.Errorf("touching zones: key 10 goes to server %d, want 1", touch.Owner(10))
	}
}

// TestRangeExchangeRoutesByValue: every row reaches the server that owns
// its key, from every sender, and nowhere else.
func TestRangeExchangeRoutesByValue(t *testing.T) {
	const servers, rowsPer = 3, 60
	m := &RangeMap{Lo: []int64{math.MinInt64, 15, 40}}
	got := runExchange(t, servers, SendConfig{Mode: ModePartition, Ranges: m}, rowsPer)
	for from := 0; from < servers; from++ {
		for k := 0; k < rowsPer; k++ {
			tag := fmt.Sprintf("s%d-%d", from, k)
			for srv := range got {
				if got[srv][tag] != (srv == m.Owner(int64(k))) {
					t.Errorf("row %s on server %d: %t, owner %d", tag, srv, got[srv][tag], m.Owner(int64(k)))
				}
			}
		}
	}
}
