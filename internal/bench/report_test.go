package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"hsqp/internal/report"
)

func TestTableRendering(t *testing.T) {
	tab := &report.Table{Title: "demo", Header: []string{"a", "bbbb"}}
	tab.Add("x", "1")
	tab.Add("longer", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines", len(lines))
	}
	// Columns align: header and separator have same visible width.
	if len(lines[1]) < len("longer  bbbb") {
		t.Fatalf("columns not padded: %q", lines[1])
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	g := GeoMean([]time.Duration{time.Second, 4 * time.Second})
	if math.Abs(g-2.0) > 1e-9 {
		t.Fatalf("geomean %v, want 2", g)
	}
}

func TestFormatHelpers(t *testing.T) {
	if report.Dur(1500*time.Millisecond) != "1.50s" {
		t.Fatal(report.Dur(1500 * time.Millisecond))
	}
	if report.Dur(2500*time.Microsecond) != "2.5ms" {
		t.Fatal(report.Dur(2500 * time.Microsecond))
	}
	if report.MB(3<<20) != "3.00MB" || report.MB(2<<30) != "2.00GB" {
		t.Fatal("MB formatting")
	}
	if report.F2(1.234) != "1.23" {
		t.Fatal("F2")
	}
}

func TestRunResultMetrics(t *testing.T) {
	r := RunResult{
		Times: map[int]time.Duration{1: time.Second, 2: time.Second},
		Total: 2 * time.Second,
	}
	if math.Abs(r.QpH()-3600) > 1e-6 {
		t.Fatalf("QpH %v", r.QpH())
	}
	if math.Abs(r.GeoMeanSeconds()-1) > 1e-9 {
		t.Fatalf("geomean %v", r.GeoMeanSeconds())
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{}.withDefaults()
	if w.SF != 0.05 || w.Seed != 42 || len(w.Queries) == 0 || w.Repeat != 2 {
		t.Fatalf("defaults: %+v", w)
	}
}

func TestSkewAnalysisShape(t *testing.T) {
	var buf bytes.Buffer
	pts := Skew{Values: 50_000, Draws: 200_000}.Run(&buf)
	if len(pts) != 2 {
		t.Fatal("want 2 points")
	}
	if pts[1].Overload <= pts[0].Overload {
		t.Fatalf("240 units must be worse than 6: %+v", pts)
	}
}
