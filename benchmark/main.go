// Command benchmark is the repository's yardstick: four TPC-H workloads on
// a 3-server × 2-worker in-process cluster, driven closed-loop, every
// result checked against internal/ref. See README.md beside this file for
// what each workload and metric means; BENCHMARK.json at the repository
// root is the contract this command is run under.
//
//	bash benchmark/run.sh --workload power_rdma --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 20 --trace 1 --out b.jsonl --spans spans.json
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"hsqp/internal/obs"
)

// maxProcs is pinned so that numbers from a larger box stay comparable
// with the 2-core box the baselines were taken on.
const maxProcs = 2

// setupRepeats is how often a timed run sets the workload up; setup_s is
// the median, and the last fixture is the one measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of the --out file: the result plus what is needed to
// compare it with another run.
type record struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Uint64("seed", 1, "seed for the generated database and the request mix")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics (traced pass and probes)")
		out     = flag.String("out", "", "append each run as one JSON line to this file")
		spans   = flag.String("spans", "", "with --trace 1: write the traced pass's spans here (Chrome trace_event JSON)")
		compare = flag.String("compare", "", "compare this --out file with the one named as the next argument")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(errors.New("usage: --compare a.jsonl b.jsonl"))
		}
		worse, err := compareFiles(os.Stdout, *compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	runtime.GOMAXPROCS(maxProcs)

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}

	ok := true
	for _, w := range todo {
		d := time.Duration(*seconds) * time.Second
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, w.sf, *seed, d, *spans)
		} else {
			res, err = runTimed(w, w.sf, *seed, d)
		}
		if err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		rec := record{
			Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
			NProc: runtime.NumCPU(), GoMaxProcs: maxProcs, GoVersion: runtime.Version(), GitSHA: gitSHA(),
			result: res,
		}
		if *out != "" {
			if err := appendLine(*out, rec); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "benchmark:", w.name)
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSetup sets the workload up and reports how long that took.
func timedSetup(w *workload, sf float64, seed uint64) (*fixture, float64, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := setup(w, sf, seed)
	return f, time.Since(t0).Seconds(), err
}

// runTimed is the --trace 0 run: set up setupRepeats times, then measure
// the end-to-end metrics for d with the benchmark's recorder off.
func runTimed(w *workload, sf float64, seed uint64, d time.Duration) (result, error) {
	var f *fixture
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		var s float64
		var err error
		if f, s, err = timedSetup(w, sf, seed); err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	defer f.close()
	res := f.run(runSpec{d: d}, nil)
	return endToEnd(res, median(setups)), nil
}

// executedLatencies returns the statement and latency (ms) of every
// operation of the pass that ran on the cluster: a result-cache hit is an
// operation, but its latency says nothing about its statement.
func executedLatencies(res passResult) (kinds []int, lat []float64) {
	for _, s := range res.samples {
		if s.executed {
			kinds = append(kinds, s.kind)
			lat = append(lat, ms(s.lat))
		}
	}
	return kinds, lat
}

// queryGeomean is the geometric mean over statements of the statement's
// geometric-mean latency: the TPC-H power metric, with every statement
// weighing the same however often it ran. The per-statement mean is
// geometric, not a median, because latencies under the default failure
// detector come in modes ~30 ms apart and a median jumps between them
// from run to run (bootstrap over one run's samples: 7 % spread against
// 4 %).
func queryGeomean(res passResult) float64 {
	kinds, lat := executedLatencies(res)
	return geomean(mapValues(kindStat(kinds, lat, geomean)))
}

// endToEnd computes the end-to-end metrics of one pass.
func endToEnd(res passResult, setupS float64) result {
	attempted := len(res.samples)
	correct := attempted - res.failed
	ops := float64(attempted)
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", res.firstErr)
	}
	return result{
		Correct:   res.failed == 0,
		Attempted: attempted,
		Failed:    res.failed,
		Metrics: map[string]metric{
			"setup_s":            {setupS, "s"},
			"query_geomean_ms":   {queryGeomean(res), "ms"},
			"throughput_qps":     {float64(correct) / res.wall.Seconds(), "ops/s"},
			"correct_frac":       {float64(correct) / ops, "ratio"},
			"alloc_mb_per_query": {float64(res.mem.allocBytes) / (1 << 20) / ops, "MB"},
			"allocs_per_query":   {float64(res.mem.mallocs) / ops, "count"},
		},
	}
}

// The traced run splits its duration three ways: a short pass with the
// program's own observability off (the base of obs.trace_overhead_ratio),
// the traced pass, and the layer probes.
const (
	untracedShare = 0.15
	tracedShare   = 0.35
)

// runTraced is the --trace 1 run: the per-layer metrics.
func runTraced(w *workload, sf float64, seed uint64, d time.Duration, spansPath string) (result, error) {
	f, _, err := timedSetup(w, sf, seed)
	if err != nil {
		return result{}, err
	}
	defer f.close()

	obs.SetEnabled(false)
	base := f.run(runSpec{d: time.Duration(float64(d) * untracedShare)}, nil)
	obs.SetEnabled(true)

	before, err := f.counters()
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced := f.run(runSpec{d: time.Duration(float64(d) * tracedShare)}, tr)
	after, err := f.counters()
	if err != nil {
		return result{}, err
	}
	metrics := layerMetrics(f, tr, traced, before, after)
	metrics["obs.trace_overhead_ratio"] = metric{ratio(queryGeomean(traced), queryGeomean(base)), "ratio"}

	budget := time.Duration(float64(d) * (1 - untracedShare - tracedShare))
	if err := clusterProbes(f, budget, metrics); err != nil {
		return result{}, err
	}
	f.close() // the remaining probes bring their own engines and meshes
	if err := layerProbes(f.db, budget, metrics); err != nil {
		return result{}, err
	}
	if spansPath != "" {
		if err := tr.writeChrome(spansPath); err != nil {
			return result{}, err
		}
	}
	attempted := len(base.samples) + len(traced.samples)
	failed := base.failed + traced.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
