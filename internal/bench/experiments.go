// Package bench is the experiment harness behind `hsqp experiment`: one
// registry entry (Experiments) per table and figure of the paper's
// evaluation and per experiment this repository adds, each regenerating
// its rows from the simulated cluster. Measuring the engine against its
// previous commit is benchmark/'s job, not this package's.
package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Args are the settings `hsqp experiment` has flags for. An experiment
// reads the ones that apply to it; the zero value runs every experiment at
// its documented defaults.
type Args struct {
	Workload Workload // -sf, and all 22 queries under -full
	Setup    Setup    // -servers
	Streams  int      // -concurrency
	Full     bool     // -full: the experiment's larger parameter grid
	// The profile experiment's: a BENCHMARK.json workload name
	// (-workload), measured rounds (-rounds) and the CPU profile's path
	// (-cpuprofile).
	Shape      string
	Rounds     int
	CPUProfile string
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, a Args) error
}

// Experiments is the one list of what can be regenerated, in the order
// `hsqp experiment -id all` runs it. The CLI, the README table and the CI
// smoke job are derived from it.
var Experiments = []Experiment{
	{"table1", "Table 1: network data link standards", table1},
	{"fig2", "Figure 2: hybrid parallelism vs classic exchange, scaling with cores per server", figure2},
	{"fig3", "Figure 3: scale-out speedup of RDMA+scheduling, TCP/IPoIB and TCP/GbE", figure3},
	{"fig4", "Figure 4: memory-bus traffic of classic I/O vs data direct I/O (model)", figure4},
	{"fig5", "Figure 5: transport tuning ladder, one stream between two servers", figure5},
	{"fig9", "Figure 9: NUMA-aware message allocation on the 4-socket server", figure9},
	{"fig10b", "Figure 10(b): all-to-all vs round-robin network scheduling", figure10b},
	{"fig10c", "Figure 10(c): throughput vs message size under scheduling", figure10c},
	{"fig11", "Figure 11: per-query scalability of the three engines", figure11},
	{"fig12a", "Figure 12(a): queries per hour by system style", figure12a},
	{"fig12b", "Figure 12(b): speedup over GbE as the data rate grows", figure12b},
	{"table2", "Table 2: detailed per-query runtimes by system style", table2},
	{"sched", "§4.2.2: impact of network scheduling per transport", schedulingImpact},
	{"sf", "§4.3.3: input size scaling (SF → 3×SF)", scaleFactorScaling},
	{"skew", "§3.1: overload of the largest partition under Zipf skew (analysis)", skewAnalysis},
	{"skewjoin", "§3.1: skewed shuffle join — static vs classic vs adaptive", skewedJoin},
	{"skewsweep", "adaptive skew handling across a Zipf sweep", skewSweep},
	{"preagg", "Figure 6(c) ablation: pre-aggregation before group-by exchanges", preAggAblation},
	{"groupjoin", "ablation: Q18 via groupjoin vs aggregate-then-join", groupJoinAblation},
	{"throughput", "multi-query throughput: concurrent streams vs back-to-back", throughput},
	{"serving", "serving tier: executed vs result-cache-hit latency, weighted-fair admission", serving},
	{"chaos", "per-query fault tolerance and online membership change", chaos},
	{"profile", "CPU profile, wall time and CPU seconds of a benchmark workload's shape", profile},
}

// Lookup returns the experiment registered under id. The error for an
// unknown (or empty) id lists every known id with its title.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	var b strings.Builder
	if id == "" {
		b.WriteString("no experiment id given")
	} else {
		fmt.Fprintf(&b, "unknown experiment %q", id)
	}
	b.WriteString("; known ids (or \"all\"):")
	for _, e := range Experiments {
		fmt.Fprintf(&b, "\n  %-10s  %s", e.ID, e.Title)
	}
	return Experiment{}, errors.New(b.String())
}
