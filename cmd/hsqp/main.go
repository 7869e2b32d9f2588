// Command hsqp is the CLI for the high-speed query processing
// reproduction: generate TPC-H data, run queries on a simulated cluster,
// explain plans and regenerate the paper's tables and figures.
//
// Usage:
//
//	hsqp dbgen -sf 0.1
//	hsqp run -q 5 -servers 6 -transport rdma -sched -sf 0.05
//	hsqp explain -q 17
//	hsqp experiment -id fig3
//	hsqp experiment -id all -full
//	hsqp experiment -id profile -workload shuffle_gbe -rounds 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hsqp/internal/bench"
	"hsqp/internal/cluster"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/report"
	"hsqp/internal/serve"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "dbgen":
		err = cmdDbgen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsqp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hsqp dbgen      -sf <scale> [-seed N] [-o dir]
  hsqp run        -q <1-22> [-servers N] [-workers N] [-sf S] [-transport rdma|tcp|gbe]
                  [-sched] [-partitioned] [-classic] [-timescale X] [-rows N]
                  [-nopushdown] [-analyze] [-trace out.json]
  hsqp explain    -q <1-22>
  hsqp client     -addr host:port [-tenant name] [-q q1] [-n N] [-prepare]
                  [-bypass] [-rows N] [-stats] [-verify] [-shutdown]
  hsqp top        -addr host:port [-interval 2s] [-n N]
  hsqp experiment -id <id>|all [-sf S] [-servers N] [-concurrency N] [-full]
                  [-workload W] [-rounds N] [-cpuprofile FILE]  (profile)
                  (no -id lists the experiments)`)
}

func cmdDbgen(args []string) error {
	fs := flag.NewFlagSet("dbgen", flag.ExitOnError)
	sf := fs.Float64("sf", 0.01, "scale factor")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("o", "", "export directory for .tbl files (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db := tpch.Generate(*sf, *seed)
	if *out != "" {
		if err := db.Export(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s/*.tbl\n", *out)
	}
	names := append([]string{}, tpch.TableNames...)
	sort.Strings(names)
	tab := &report.Table{Title: fmt.Sprintf("TPC-H SF %g", *sf), Header: []string{"relation", "rows"}}
	for _, n := range names {
		tab.Add(n, fmt.Sprintf("%d", db.Tables[n].Rows()))
	}
	tab.Fprint(os.Stdout)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	q := fs.Int("q", 1, "TPC-H query number")
	servers := fs.Int("servers", 3, "cluster size")
	workers := fs.Int("workers", 4, "workers per server")
	sf := fs.Float64("sf", 0.01, "scale factor")
	transport := fs.String("transport", "rdma", "rdma|tcp|gbe")
	sched := fs.Bool("sched", true, "round-robin network scheduling")
	partitioned := fs.Bool("partitioned", false, "partitioned placement")
	classic := fs.Bool("classic", false, "classic exchange-operator model")
	timescale := fs.Float64("timescale", cluster.DefaultTimeScale, "network time scale")
	rows := fs.Int("rows", 20, "result rows to print")
	nopushdown := fs.Bool("nopushdown", false, "disable column pruning below exchanges (ablation)")
	analyze := fs.Bool("analyze", false, "print explain analyze (per-operator rows/time/allocs) after the run")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the query to this file (load in chrome://tracing or Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, err := cluster.ParseTransport(*transport)
	if err != nil {
		return err
	}
	c, err := cluster.New(cluster.Config{
		Servers:          *servers,
		WorkersPerServer: *workers,
		Transport:        tk,
		Scheduling:       *sched,
		TimeScale:        *timescale,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("loading TPC-H SF %g (%s placement) on %d servers…\n",
		*sf, map[bool]string{true: "partitioned", false: "chunked"}[*partitioned], *servers)
	c.LoadTPCH(tpch.Generate(*sf, 42), *partitioned)
	qp, err := queries.Build(*q, queries.Params{SF: *sf})
	if err != nil {
		return err
	}
	// Run through a session so the trace timeline includes the admission
	// phase (queue → compile → pipelines), exactly like the serving path.
	sess := c.NewSession(cluster.SessionConfig{})
	defer sess.Close()
	res, stats, err := sess.RunContext(context.Background(), qp, cluster.WithPlan(plan.Options{
		Classic:    *classic,
		NoPushdown: *nopushdown,
	}))
	if err != nil {
		return err
	}
	printBatch(res, *rows)
	// Remote bytes crossed a link; loopback bytes went through the codec
	// to a server's own multiplexer. BytesSent is a cluster-wide delta, so
	// the difference is clamped at zero.
	remote, wire := stats.BytesSent, stats.WireBytes()
	loopback := wire - min(remote, wire)
	fmt.Printf("\n%d rows; %s; shuffled %.1f KB remote + %.1f KB loopback in %d messages (%d stolen, %d local)\n",
		res.Rows(), stats.Duration, float64(remote)/1024, float64(loopback)/1024, stats.MessagesSent,
		stats.StolenMsgs, stats.LocalMsgs)
	fmt.Printf("pipeline DAG: overlap ratio %.2f, peak %d concurrent pipelines/server\n",
		stats.MaxOverlap(), stats.PeakConcurrentPipelines())
	if *analyze {
		fmt.Printf("timing: compile %s + execute %s (scheduler delay %s)\n",
			stats.Compile, stats.Exec, stats.SchedulerDelay())
		fmt.Printf("\n%s", plan.ExplainAnalyze(qp, stats.PipelineStats))
	}
	if *tracePath != "" {
		if stats.Trace == nil {
			return fmt.Errorf("no trace collected (observability disabled?)")
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := stats.Trace.WriteChromeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans over %s written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n",
			len(stats.Trace.Spans), stats.Trace.End(), *tracePath)
	}
	return nil
}

func printBatch(b *storage.Batch, maxRows int) {
	tab := &report.Table{}
	for _, f := range b.Schema.Fields {
		tab.Header = append(tab.Header, f.Name)
	}
	n := b.Rows()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		row := make([]string, b.Schema.Len())
		for c := range b.Cols {
			v := b.Cols[c].Value(i)
			switch b.Schema.Fields[c].Type {
			case storage.TDecimal:
				if v != nil {
					row[c] = fmt.Sprintf("%.2f", storage.DecimalFloat(v.(int64)))
				}
			case storage.TDate:
				if v != nil {
					row[c] = storage.FormatDate(v.(int64))
				}
			default:
				row[c] = fmt.Sprintf("%v", v)
			}
		}
		tab.Add(row...)
	}
	tab.Fprint(os.Stdout)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	q := fs.Int("q", 17, "TPC-H query number")
	if err := fs.Parse(args); err != nil {
		return err
	}
	qp, err := queries.Build(*q, queries.Params{SF: 1})
	if err != nil {
		return err
	}
	fmt.Print(plan.Explain(qp))
	return nil
}

func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7483", "hsqpd address")
	tenant := fs.String("tenant", "default", "tenant name (selects the admission queue)")
	stmts := fs.String("q", "q1", "statement(s), comma-separated, e.g. q1,q5,q12")
	n := fs.Int("n", 1, "repetitions per statement")
	prepare := fs.Bool("prepare", false, "register a prepared-statement handle and execute through it")
	bypass := fs.Bool("bypass", false, "bypass the server's result cache")
	rows := fs.Int("rows", 0, "result rows to print (0 = none)")
	showStats := fs.Bool("stats", false, "print per-request serving stats")
	verify := fs.Bool("verify", false, "check results against the reference engine (regenerates the database from the advertised sf/seed)")
	shutdown := fs.Bool("shutdown", false, "ask the server to drain and exit (after any queries)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cl, err := serve.Dial(*addr, *tenant)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("connected to %s as %q (sf %g, seed %d, weight %d)\n",
		*addr, *tenant, cl.Info.SF, cl.Info.Seed, cl.Info.Weight)

	var db *tpch.Database
	if *verify {
		db = tpch.Generate(cl.Info.SF, cl.Info.Seed)
	}
	opts := serve.ExecOpts{BypassResultCache: *bypass}
	pathTally := map[string]int{}
	requests := 0

	for _, stmt := range strings.Split(*stmts, ",") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		exec := func() (*storage.Batch, serve.ExecStats, error) {
			return cl.ExecWithOpts(stmt, opts)
		}
		var ps *serve.Stmt
		if *prepare {
			if ps, err = cl.Prepare(stmt); err != nil {
				return fmt.Errorf("prepare %s: %w", stmt, err)
			}
			exec = func() (*storage.Batch, serve.ExecStats, error) { return ps.ExecOpts(opts) }
		}
		var last *storage.Batch
		for i := 0; i < *n; i++ {
			res, st, err := exec()
			if err != nil {
				return fmt.Errorf("%s: %w", stmt, err)
			}
			last = res
			path := "executed"
			switch {
			case st.Shared:
				path = "shared"
			case st.ResultHit:
				path = "result-cache hit"
			}
			pathTally[path]++
			requests++
			fmt.Printf("%-4s %6d rows  %10s  %s\n", stmt, st.Rows, st.Wall, path)
			if *showStats {
				fmt.Printf("     queue %s  compile %s  execute %s  server total %s\n",
					st.QueueWait, st.Compile, st.Exec, st.Total)
			}
		}
		if ps != nil {
			if err := ps.Close(); err != nil {
				return fmt.Errorf("close %s: %w", stmt, err)
			}
		}
		if *rows > 0 && last != nil {
			printBatch(last, *rows)
		}
		if *verify {
			qn, err := serve.ParseStatement(stmt)
			if err != nil {
				return err
			}
			want, err := ref.Run(qn, db, cl.Info.SF)
			if err != nil {
				return fmt.Errorf("reference %s: %w", stmt, err)
			}
			if err := ref.Compare(qn, last, want); err != nil {
				return fmt.Errorf("%s: VERIFICATION FAILED: %w", stmt, err)
			}
			fmt.Printf("     verified against reference engine (%d rows)\n", last.Rows())
		}
	}

	if *showStats && requests > 1 {
		paths := make([]string, 0, len(pathTally))
		for p := range pathTally {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		fmt.Printf("%d requests:", requests)
		for _, p := range paths {
			fmt.Printf("  %d %s", pathTally[p], p)
		}
		fmt.Println()
	}

	if *shutdown {
		if err := cl.Shutdown(); err != nil {
			return err
		}
		fmt.Println("server draining")
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	id := fs.String("id", "", "experiment id, or all (run without an id to list them)")
	sf := fs.Float64("sf", 0.05, "scale factor")
	servers := fs.Int("servers", 3, "cluster size (engine experiments)")
	concurrency := fs.Int("concurrency", 8, "concurrent query streams (throughput experiment)")
	full := fs.Bool("full", false, "run all 22 queries / full parameter grids")
	workload := fs.String("workload", "power_rdma", "benchmark workload whose shape the profile experiment runs")
	rounds := fs.Int("rounds", 10, "measured rounds of the profile experiment")
	cpuprofile := fs.String("cpuprofile", "", "profile experiment's output (default hsqp-<workload>.pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := bench.Args{
		Workload:   bench.Workload{SF: *sf},
		Setup:      bench.Setup{Servers: *servers},
		Streams:    *concurrency,
		Full:       *full,
		Shape:      *workload,
		Rounds:     *rounds,
		CPUProfile: *cpuprofile,
	}
	if *full {
		a.Workload.Queries = queries.All()
	}
	exps := bench.Experiments
	if *id != "all" {
		e, err := bench.Lookup(*id)
		if err != nil {
			return err
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		fmt.Println()
		if err := e.Run(os.Stdout, a); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
