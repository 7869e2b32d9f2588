package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile([]float64{10, 20}, 95); !near(got, 19.5) {
		t.Errorf("p95 of {10,20} = %v, want 19.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{4, 0, 9}); !near(got, 6) {
		t.Errorf("geomean skipping zero = %v, want 6", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 1})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestKindNormalisation(t *testing.T) {
	kinds := []int{1, 6, 1, 6, 1}
	lat := []float64{100, 1, 300, 4, 200}
	med := kindStat(kinds, lat, median)
	if med[1] != 200 || med[6] != 2.5 {
		t.Fatalf("kind medians = %v, want 1:200 6:2.5", med)
	}
	// A slow statement and a fast one contribute equally once normalised.
	got := slowdowns(kinds, lat)
	want := []float64{0.5, 0.4, 1.5, 1.6, 1}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("slowdown[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The power metric weighs every statement the same, however often it ran.
	gm := kindStat(kinds, lat, geomean)
	if g := geomean(mapValues(gm)); !near(g, math.Sqrt(math.Cbrt(100*300*200)*2)) {
		t.Errorf("geomean over kinds = %v", g)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 100, 101, 99, 100}
	cases := []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"equal", steady, true, "within"},
		{"lower is better, 20% higher", []float64{120, 120, 121, 119, 120}, true, "worse"},
		{"lower is better, 20% lower", []float64{80, 80, 81, 79, 80}, true, "within"},
		{"higher is better, 20% lower", []float64{80, 80, 81, 79, 80}, false, "worse"},
		{"noisy", []float64{70, 100, 130, 85, 115}, true, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(steady, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
