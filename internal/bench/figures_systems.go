package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hsqp/internal/competitors"
	"hsqp/internal/fabric"
	"hsqp/internal/report"
	"hsqp/internal/tpch"
)

// system is one column of the system comparisons: a modeled engine style
// on one data placement.
type system struct {
	name        string
	style       competitors.Style
	partitioned bool
}

// comparedSystems are the systems of Figure 12(a) and Table 2, slowest
// first. The very slow interpreted Spark/Impala styles only run under
// -full.
func comparedSystems(full bool) []system {
	systems := []system{
		{"MemSQL-style", competitors.MemSQLStyle, true},
		{"Vectorwise-style", competitors.VectorwiseStyle, true},
		{"HyPer (chunked)", competitors.HyPerStyle, false},
		{"HyPer (partitioned)", competitors.HyPerStyle, true},
	}
	if full {
		systems = append([]system{
			{"SparkSQL-style", competitors.SparkSQLStyle, false},
			{"Impala-style", competitors.ImpalaStyle, false},
		}, systems...)
	}
	return systems
}

// run executes the workload as this system on deployment s: the style's
// transport and plan options, at the given link rate (zero = the
// transport's native rate).
func (sys system) run(s Setup, rate fabric.Rate, wl Workload) (RunResult, error) {
	s = s.withDefaults()
	cfg, po := competitors.ClusterConfig(sys.style, s.Servers, s.Workers, s.TimeScale)
	cfg.Rate = rate
	wl.Partitioned = sys.partitioned
	res, err := RunVariants(cfg, wl, po)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// figure12a compares the modeled distributed SQL systems by
// queries-per-hour on the same workload (paper: Spark 77, Impala 123,
// MemSQL 544, Vectorwise 3856, HyPer chunked 16090 / partitioned 20739).
func figure12a(w io.Writer, a Args) error {
	tab := &report.Table{
		Title:  "Figure 12(a): queries per hour by system style",
		Header: []string{"system", "placement", "queries/hour"},
	}
	for _, sys := range comparedSystems(a.Full) {
		res, err := sys.run(a.Setup, 0, a.Workload)
		if err != nil {
			return err
		}
		placement := "chunked"
		if sys.partitioned {
			placement = "partitioned"
		}
		tab.Add(sys.name, placement, fmt.Sprintf("%.0f", res.QpH()))
	}
	tab.Fprint(w)
	return nil
}

// figure12b sweeps the network bandwidth (GbE → SDR → DDR → QDR) and
// reports each system's speedup over its own GbE run. Paper: HyPer-RDMA
// scales ~12×, TCP engines plateau around 4×, MemSQL ~1.2×.
func figure12b(w io.Writer, a Args) error {
	rates := []fabric.Rate{fabric.GbE, fabric.IB4xSDR, fabric.IB4xDDR, fabric.IB4xQDR}
	systems := []system{
		{"HyPer (RDMA)", competitors.HyPerStyle, false},
		{"HyPer (TCP)", competitors.HyPerTCPStyle, false},
		{"Vectorwise-style", competitors.VectorwiseStyle, true},
		{"MemSQL-style", competitors.MemSQLStyle, true},
	}
	tab := &report.Table{
		Title:  "Figure 12(b): speedup over GbE as the data rate grows",
		Header: []string{"system", "GbE", "SDR", "DDR", "QDR"},
	}
	for _, sys := range systems {
		base := time.Duration(0)
		row := []string{sys.name}
		for _, rate := range rates {
			res, err := sys.run(a.Setup, rate, a.Workload)
			if err != nil {
				return err
			}
			if rate == fabric.GbE {
				base = res.Total
			}
			row = append(row, report.F2(base.Seconds()/res.Total.Seconds()))
		}
		tab.Add(row...)
	}
	tab.Fprint(w)
	return nil
}

// table2 produces the detailed per-query comparison: runtimes per system,
// messages sent and data shuffled, geometric mean and queries/hour.
func table2(w io.Writer, a Args) error {
	systems := comparedSystems(a.Full)
	cols := make([]RunResult, len(systems))
	tab := &report.Table{Title: "Table 2: detailed query runtimes", Header: []string{"query"}}
	for i, sys := range systems {
		var err error
		if cols[i], err = sys.run(a.Setup, 0, a.Workload); err != nil {
			return err
		}
		tab.Header = append(tab.Header, sys.name)
	}
	qs := append([]int{}, a.Workload.withDefaults().Queries...)
	sort.Ints(qs)
	addRow := func(label string, cell func(RunResult) string) {
		row := []string{label}
		for _, c := range cols {
			row = append(row, cell(c))
		}
		tab.Add(row...)
	}
	for _, q := range qs {
		addRow(fmt.Sprintf("Q%d", q), func(c RunResult) string { return report.Dur(c.Times[q]) })
	}
	addRow("messages", func(c RunResult) string { return fmt.Sprintf("%d", c.Stats.MessagesSent) })
	addRow("data shuffled", func(c RunResult) string { return report.MB(c.Stats.BytesSent) })
	addRow("total", func(c RunResult) string { return report.Dur(c.Total) })
	addRow("geo mean (s)", func(c RunResult) string { return fmt.Sprintf("%.4f", c.GeoMeanSeconds()) })
	addRow("queries/hour", func(c RunResult) string { return fmt.Sprintf("%.0f", c.QpH()) })
	tab.Fprint(w)
	return nil
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
	tab := &report.Table{
		Title:  fmt.Sprintf("§3.1: skew impact (Zipf z=%.2f): overload of the largest partition", f.Zipf),
		Header: []string{"parallel units", "max/ideal", "input increase"},
	}
	for _, units := range []int{6, 240} {
		ov := tpch.MaxPartitionShare(f.Values, f.Zipf, f.Draws, units, 7)
		out = append(out, SkewPoint{Units: units, Overload: ov})
		tab.Add(fmt.Sprintf("%d", units), report.F2(ov), fmt.Sprintf("%+.1f%%", (ov-1)*100))
	}
	tab.Fprint(w)
	return out
}

func skewAnalysis(w io.Writer, _ Args) error {
	Skew{}.Run(w)
	return nil
}
