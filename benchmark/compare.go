package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// bounds is the share of the base's median by which each end-to-end metric
// may worsen, and whether lower is better. BENCHMARK.json holds the same
// numbers for the driver; TestSmoke checks that the two agree.
var bounds = []struct {
	name  string
	lower bool
	bound float64
}{
	{"setup_s", true, 0.25},
	{"query_geomean_ms", true, 0.20},
	{"throughput_qps", false, 0.15},
	{"correct_frac", false, 0.001},
	{"alloc_mb_per_query", true, 0.05},
	{"allocs_per_query", true, 0.03},
}

// readRuns loads the --trace 0 records of an --out file, grouped by
// workload.
func readRuns(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the quartiles as a share of the median,
// the driver's measure of run-to-run noise. One run has no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func values(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict classifies b's median against a's: "worse" when it is worse by
// more than the bound, "unresolved" when either side's spread is wider
// than the bound (the medians then say nothing), else "within".
func verdict(a, b []float64, lower bool, bound float64) (diff float64, v string) {
	ma, mb := median(a), median(b)
	diff = ratio(mb-ma, ma)
	worse := diff
	if !lower {
		worse = -diff
	}
	switch {
	case worse > bound:
		return diff, "worse"
	case spread(a) > bound || spread(b) > bound:
		return diff, "unresolved"
	default:
		return diff, "within"
	}
}

// compareFiles prints, per workload × end-to-end metric, both medians
// with their spreads, b's difference relative to a, the bound and the
// verdict. It reports whether any pairing is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload with --trace 0 runs", pathA, pathB)
	}
	fmt.Fprintf(w, "%-15s %-19s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "a median", "spread", "b median", "spread", "b vs a", "bound", "verdict")
	for _, name := range names {
		for _, bd := range bounds {
			va, vb := values(a[name], bd.name), values(b[name], bd.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			diff, v := verdict(va, vb, bd.lower, bd.bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-19s %2d/%-2d %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.1f%%  %s\n",
				name, bd.name, len(va), len(vb), median(va), 100*spread(va), median(vb), 100*spread(vb),
				100*diff, 100*bd.bound, v)
		}
	}
	return anyWorse, nil
}
