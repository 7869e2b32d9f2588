package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hsqp/internal/competitors"
	"hsqp/internal/fabric"
	"hsqp/internal/tpch"
)

// runStyle runs the workload as one modeled system on this deployment: the
// style's transport and plan options, at the given link rate (zero = the
// transport's native rate).
func (s Setup) runStyle(style competitors.Style, rate fabric.Rate, w Workload) (RunResult, error) {
	s = s.withDefaults()
	cfg, po := competitors.ClusterConfig(style, s.Servers, s.Workers, s.TimeScale)
	cfg.Rate = rate
	res, err := RunVariants(cfg, w, po)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// Figure12a compares the modeled distributed SQL systems by
// queries-per-hour on the same workload (paper: Spark 77, Impala 123,
// MemSQL 544, Vectorwise 3856, HyPer chunked 16090 / partitioned 20739).
type Figure12a struct {
	Workload Workload
	Setup
	// IncludeInterpreted also runs the very slow Spark/Impala styles
	// (expensive; off for quick runs).
	IncludeInterpreted bool
}

// Figure12aPoint is one system's throughput.
type Figure12aPoint struct {
	System string
	QpH    float64
}

// Run executes the comparison.
func (f Figure12a) Run(w io.Writer) ([]Figure12aPoint, error) {
	styles := []competitors.Style{competitors.MemSQLStyle, competitors.VectorwiseStyle}
	if f.IncludeInterpreted {
		styles = append([]competitors.Style{competitors.SparkSQLStyle, competitors.ImpalaStyle}, styles...)
	}
	var out []Figure12aPoint
	tab := &Table{
		Title:  "Figure 12(a): queries per hour by system style",
		Header: []string{"system", "placement", "queries/hour"},
	}
	run := func(name string, style competitors.Style, partitioned bool) error {
		wl := f.Workload
		wl.Partitioned = partitioned
		res, err := f.runStyle(style, 0, wl)
		if err != nil {
			return err
		}
		out = append(out, Figure12aPoint{System: name, QpH: res.QpH()})
		placement := "chunked"
		if partitioned {
			placement = "partitioned"
		}
		tab.Add(name, placement, fmt.Sprintf("%.0f", res.QpH()))
		return nil
	}
	for _, s := range styles {
		if err := run(s.String(), s, s.Partitioned()); err != nil {
			return nil, err
		}
	}
	if err := run("HyPer (chunked)", competitors.HyPerStyle, false); err != nil {
		return nil, err
	}
	if err := run("HyPer (partitioned)", competitors.HyPerStyle, true); err != nil {
		return nil, err
	}
	tab.Fprint(w)
	return out, nil
}

// Figure12b sweeps the network bandwidth (GbE → SDR → DDR → QDR) and
// reports each system's speedup over its own GbE run. Paper: HyPer-RDMA
// scales ~12×, TCP engines plateau around 4×, MemSQL ~1.2×.
type Figure12b struct {
	Workload Workload
	Setup
}

// Figure12bPoint is one (system, rate) speedup over GbE.
type Figure12bPoint struct {
	System  string
	Rate    fabric.Rate
	Speedup float64
}

// Run executes the sweep.
func (f Figure12b) Run(w io.Writer) ([]Figure12bPoint, error) {
	rates := []fabric.Rate{fabric.GbE, fabric.IB4xSDR, fabric.IB4xDDR, fabric.IB4xQDR}
	systems := []struct {
		name        string
		style       competitors.Style
		partitioned bool
	}{
		{"HyPer (RDMA)", competitors.HyPerStyle, false},
		{"HyPer (TCP)", competitors.HyPerTCPStyle, false},
		{"Vectorwise-style", competitors.VectorwiseStyle, true},
		{"MemSQL-style", competitors.MemSQLStyle, true},
	}
	var out []Figure12bPoint
	tab := &Table{
		Title:  "Figure 12(b): speedup over GbE as the data rate grows",
		Header: []string{"system", "GbE", "SDR", "DDR", "QDR"},
	}
	for _, sys := range systems {
		base := time.Duration(0)
		row := []string{sys.name}
		for _, rate := range rates {
			wl := f.Workload
			wl.Partitioned = sys.partitioned
			res, err := f.runStyle(sys.style, rate, wl)
			if err != nil {
				return nil, err
			}
			if rate == fabric.GbE {
				base = res.Total
			}
			sp := base.Seconds() / res.Total.Seconds()
			out = append(out, Figure12bPoint{System: sys.name, Rate: rate, Speedup: sp})
			row = append(row, F2(sp))
		}
		tab.Add(row...)
	}
	tab.Fprint(w)
	return out, nil
}

// Table2 produces the detailed per-query comparison: runtimes per system,
// messages sent and data shuffled, geometric mean and queries/hour.
type Table2 struct {
	Workload Workload
	Setup
	// IncludeInterpreted adds the slow Spark-/Impala-style engines.
	IncludeInterpreted bool
}

// Table2Column is one system's full-run measurement.
type Table2Column struct {
	System   string
	Times    map[int]time.Duration
	Shuffled uint64
	Messages uint64
	Total    time.Duration
	GeoMean  float64
	QpH      float64
}

// Run executes the comparison.
func (f Table2) Run(w io.Writer) ([]Table2Column, error) {
	type sys struct {
		name        string
		style       competitors.Style
		partitioned bool
	}
	systems := []sys{
		{"MemSQL-style", competitors.MemSQLStyle, true},
		{"Vectorwise-style", competitors.VectorwiseStyle, true},
		{"HyPer (chunked)", competitors.HyPerStyle, false},
		{"HyPer (partitioned)", competitors.HyPerStyle, true},
	}
	if f.IncludeInterpreted {
		systems = append([]sys{
			{"SparkSQL-style", competitors.SparkSQLStyle, false},
			{"Impala-style", competitors.ImpalaStyle, false},
		}, systems...)
	}
	var cols []Table2Column
	for _, s := range systems {
		wl := f.Workload
		wl.Partitioned = s.partitioned
		res, err := f.runStyle(s.style, 0, wl)
		if err != nil {
			return nil, err
		}
		cols = append(cols, Table2Column{
			System:   s.name,
			Times:    res.Times,
			Shuffled: res.Stats.BytesSent,
			Messages: res.Stats.MessagesSent,
			Total:    res.Total,
			GeoMean:  res.GeoMeanSeconds(),
			QpH:      res.QpH(),
		})
	}
	// Render.
	wl := f.Workload.withDefaults()
	qs := append([]int{}, wl.Queries...)
	sort.Ints(qs)
	tab := &Table{Title: "Table 2: detailed query runtimes", Header: []string{"query"}}
	for _, c := range cols {
		tab.Header = append(tab.Header, c.System)
	}
	for _, q := range qs {
		row := []string{fmt.Sprintf("Q%d", q)}
		for _, c := range cols {
			row = append(row, Dur(c.Times[q]))
		}
		tab.Add(row...)
	}
	addSummary := func(label string, fn func(Table2Column) string) {
		row := []string{label}
		for _, c := range cols {
			row = append(row, fn(c))
		}
		tab.Add(row...)
	}
	addSummary("messages", func(c Table2Column) string { return fmt.Sprintf("%d", c.Messages) })
	addSummary("data shuffled", func(c Table2Column) string { return MB(c.Shuffled) })
	addSummary("total", func(c Table2Column) string { return Dur(c.Total) })
	addSummary("geo mean (s)", func(c Table2Column) string { return fmt.Sprintf("%.4f", c.GeoMean) })
	addSummary("queries/hour", func(c Table2Column) string { return fmt.Sprintf("%.0f", c.QpH) })
	tab.Fprint(w)
	return cols, nil
}

// Skew reproduces the §3.1 analysis: the largest partition's overload
// factor under Zipf-skewed keys for 240 parallel units (classic exchange,
// 6 servers × 40 threads) vs 6 (hybrid parallelism).
type Skew struct {
	Zipf   float64
	Values int
	Draws  int
}

// SkewPoint is one unit-count's overload factor.
type SkewPoint struct {
	Units    int
	Overload float64 // max partition ÷ ideal share
}

// Run executes the analysis.
func (f Skew) Run(w io.Writer) []SkewPoint {
	if f.Zipf == 0 {
		f.Zipf = 0.84
	}
	if f.Values == 0 {
		f.Values = 1_000_000
	}
	if f.Draws == 0 {
		f.Draws = 2_000_000
	}
	var out []SkewPoint
	tab := &Table{
		Title:  fmt.Sprintf("§3.1: skew impact (Zipf z=%.2f): overload of the largest partition", f.Zipf),
		Header: []string{"parallel units", "max/ideal", "input increase"},
	}
	for _, units := range []int{6, 240} {
		ov := tpch.MaxPartitionShare(f.Values, f.Zipf, f.Draws, units, 7)
		out = append(out, SkewPoint{Units: units, Overload: ov})
		tab.Add(fmt.Sprintf("%d", units), F2(ov), fmt.Sprintf("%+.1f%%", (ov-1)*100))
	}
	tab.Fprint(w)
	return out
}
