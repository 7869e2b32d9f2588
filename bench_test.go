// Package hsqp's benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation. Each benchmark regenerates the
// corresponding rows/series (printed with -v through b.Log) and reports a
// headline number via b.ReportMetric. Parameters are scaled down so the
// whole suite runs in minutes; cmd/hsqp `experiment -id <x> -full` runs
// the full grids.
package hsqp

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"hsqp/internal/bench"
	"hsqp/internal/cluster"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// logTable emits the experiment's table through the benchmark log.
func logTable(b *testing.B, buf *bytes.Buffer) {
	b.Helper()
	b.Log("\n" + buf.String())
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Table1(&buf)
		if i == 0 {
			logTable(b, &buf)
		}
	}
}

func BenchmarkFigure2HybridVsClassic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.Figure2{
			Workload:  bench.Workload{SF: 0.05},
			Setup:     bench.Setup{Servers: 3},
			CoreSteps: []int{1, 2, 4},
		}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			last := pts[len(pts)-1]
			b.ReportMetric(pts[0].Hybrid.Seconds()/last.Hybrid.Seconds(), "hybrid-speedup")
			b.ReportMetric(pts[0].Classic.Seconds()/last.Classic.Seconds(), "classic-speedup")
		}
	}
}

func BenchmarkFigure3ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.Figure3{
			Workload: bench.Workload{SF: 0.1},
			Setup:    bench.Setup{Servers: 4},
		}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			last := pts[len(pts)-1]
			b.ReportMetric(last.Speedup["RDMA+sched"], "rdma-speedup")
			b.ReportMetric(last.Speedup["TCP/GbE"], "gbe-speedup")
		}
	}
}

func BenchmarkFigure4MemoryTrips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Figure4(&buf)
		if i == 0 {
			logTable(b, &buf)
		}
	}
}

func BenchmarkFigure5TransportTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.Figure5{Messages: 120}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			for _, p := range pts {
				if p.Name == "default RDMA" {
					b.ReportMetric(p.Unidirectional, "rdma-GB/s")
				}
				if p.Name == "TCP w/o offload" {
					b.ReportMetric(p.Unidirectional, "tcp-slow-GB/s")
				}
			}
		}
	}
}

func BenchmarkFigure6PlanShapes(b *testing.B) {
	// Figure 6 is the Q17 plan transformation; regenerating it is plan
	// construction + explain.
	for i := 0; i < b.N; i++ {
		q := queries.MustBuild(17, queries.Params{SF: 1})
		if len(q.Name) == 0 {
			b.Fatal("no plan")
		}
	}
}

func BenchmarkFigure8Serialization(b *testing.B) {
	// Serialization throughput of the densely packed format over the
	// Figure 8 example relation (partsupp).
	db := tpch.Generate(0.01, 42)
	ps := db.Tables["partsupp"]
	codec := ser.NewCodec(ps.Schema)
	var bytesTotal int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf []byte
		for r := 0; r < ps.Rows(); r++ {
			buf = codec.EncodeRow(ps, r, buf)
		}
		out := storage.NewBatch(ps.Schema, ps.Rows())
		if _, err := codec.DecodeAll(buf, out); err != nil {
			b.Fatal(err)
		}
		bytesTotal += int64(len(buf))
	}
	b.SetBytes(bytesTotal / int64(b.N))
}

func BenchmarkFigure9NUMAAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.Figure9{Workload: bench.Workload{SF: 0.05}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(pts[2].RemoteFrac, "one-socket-remote-frac")
		}
	}
}

func BenchmarkFigure10bScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.Figure10b{ServerList: []int{2, 6, 8}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			last := pts[len(pts)-1]
			b.ReportMetric(last.RoundRobin/last.AllToAll-1, "improvement-at-8")
		}
	}
}

func BenchmarkFigure10cMessageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := (bench.Figure10c{}).Run(&buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
		}
	}
}

func BenchmarkFigure11PerQueryScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_, err := bench.Figure11{
			Workload:   bench.Workload{SF: 0.05, Queries: []int{1, 5, 12}},
			ServerList: []int{1, 3},
		}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
		}
	}
}

func BenchmarkFigure12aSystems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.Figure12a{
			Workload:           bench.Workload{SF: 0.02},
			IncludeInterpreted: true,
		}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(pts[len(pts)-1].QpH, "hyper-partitioned-qph")
			b.ReportMetric(pts[0].QpH, "slowest-style-qph")
		}
	}
}

func BenchmarkFigure12bBandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_, err := bench.Figure12b{Workload: bench.Workload{SF: 0.05}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
		}
	}
}

func BenchmarkTable2DetailedRuntimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		cols, err := bench.Table2{Workload: bench.Workload{SF: 0.05}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			for _, c := range cols {
				if c.System == "HyPer (partitioned)" {
					b.ReportMetric(c.QpH, "hyper-partitioned-qph")
				}
			}
		}
	}
}

func BenchmarkSchedulingImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.SchedulingImpact{Workload: bench.Workload{SF: 0.1}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			for _, p := range pts {
				b.ReportMetric(p.Improvement, fmt.Sprintf("improvement-%s", p.Transport))
			}
		}
	}
}

func BenchmarkScaleFactorScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		ratio, err := bench.ScaleFactorScaling{Workload: bench.Workload{SF: 0.03}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(ratio, "time-ratio-3x-data")
		}
	}
}

func BenchmarkSkewAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts := bench.Skew{}.Run(&buf)
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(pts[0].Overload, "overload-6-units")
			b.ReportMetric(pts[1].Overload, "overload-240-units")
		}
	}
}

func BenchmarkSkewedJoinWorkStealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := bench.SkewedJoin{}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(pts[1].Time.Seconds()/pts[0].Time.Seconds(), "classic-slowdown")
		}
	}
}

func BenchmarkAblationPreAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		res, err := bench.PreAggAblation{}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(float64(res.BytesWithout)/float64(res.BytesWith), "shuffle-reduction")
		}
	}
}

func BenchmarkAblationGroupJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		gj, aj, err := bench.GroupJoinAblation{}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, &buf)
			b.ReportMetric(aj.Seconds()/gj.Seconds(), "aggjoin-vs-groupjoin")
		}
	}
}

// benchCluster builds the 3×4 RDMA/scheduled deployment (or its
// single-server variant) the engine benchmarks share and loads TPC-H
// SF 0.05 on it.
func benchCluster(b *testing.B, servers int) *cluster.Cluster {
	b.Helper()
	bench.Warmup()
	c, err := cluster.New(cluster.Config{
		Servers:          servers,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		TimeScale:        cluster.DefaultTimeScale,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	c.LoadTPCH(bench.DB(0.05, 42), false)
	return c
}

// BenchmarkDAGvsSerial measures the compute/communication overlap win of
// the pipeline-DAG scheduler against the old ordered-pipeline-list
// execution on one distributed TPC-H join query (Q12), both on the same
// loaded cluster. The dag case reports the measured overlap ratio and peak
// pipeline concurrency.
func BenchmarkDAGvsSerial(b *testing.B) {
	c := benchCluster(b, 3)
	q := queries.MustBuild(12, queries.Params{SF: 0.05})
	for _, mode := range []struct {
		name string
		opts plan.Options
	}{{"serial", plan.Options{Serial: true}}, {"dag", plan.Options{}}} {
		b.Run(mode.name, func(b *testing.B) {
			var overlap float64
			var concurrent int
			for i := 0; i < b.N; i++ {
				_, stats, err := c.RunContext(context.Background(), q, cluster.WithPlan(mode.opts))
				if err != nil {
					b.Fatal(err)
				}
				if o := stats.MaxOverlap(); o > overlap {
					overlap = o
				}
				if cc := stats.PeakConcurrentPipelines(); cc > concurrent {
					concurrent = cc
				}
			}
			b.ReportMetric(overlap, "overlap-ratio")
			b.ReportMetric(float64(concurrent), "peak-pipelines")
		})
	}
}

// BenchmarkSingleQuery measures one distributed TPC-H query end to end:
// the building block of every engine experiment.
func BenchmarkSingleQuery(b *testing.B) {
	c := benchCluster(b, 3)
	q := queries.MustBuild(5, queries.Params{SF: 0.05})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.RunContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughput is the multi-query headline: 8 concurrent TPC-H Q12
// streams on the shared 3-server engine versus the same queries run
// serially. Reported metrics are queries/sec in both modes and the
// concurrent/serial speedup.
func BenchmarkThroughput(b *testing.B) {
	bench.Warmup()
	var buf bytes.Buffer
	var last bench.ThroughputResult
	for i := 0; i < b.N; i++ {
		buf.Reset()
		res, err := bench.Throughput{}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	logTable(b, &buf)
	b.ReportMetric(last.SerialQPS, "serial-qps")
	b.ReportMetric(last.ConcurrentQPS, "concurrent-qps")
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.ConcurrentP99.Milliseconds()), "p99-ms")
}

// BenchmarkFusedHotPath measures the single-pass fused operator path
// against the one-materialization-per-operator ablation on the two
// select/map-heavy TPC-H plans (Q1: select+map before a wide aggregate;
// Q12: selective filters feeding a join). Single server takes the network
// out of the measurement; allocs/op shows the scratch-pooling win.
func BenchmarkFusedHotPath(b *testing.B) {
	c := benchCluster(b, 1)
	for _, qn := range []int{1, 12} {
		q := queries.MustBuild(qn, queries.Params{SF: 0.05})
		for _, mode := range []struct {
			name string
			opts plan.Options
		}{{"fused", plan.Options{}}, {"nofuse", plan.Options{NoFuse: true, NoPushdown: true}}} {
			b.Run(fmt.Sprintf("q%02d/%s", qn, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.RunContext(context.Background(), q, cluster.WithPlan(mode.opts)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServing measures the serving tier's two latency paths over a
// loopback socket — executed (statement build + per-server compile +
// execute) and result-cache hit (encoded bytes, no execution) — plus the
// weighted-fair fairness phase. The acceptance bar is resulthit-speedup
// well above 1.
func BenchmarkServing(b *testing.B) {
	bench.Warmup()
	var buf bytes.Buffer
	var last bench.ServingResult
	for i := 0; i < b.N; i++ {
		buf.Reset()
		res, err := bench.Serving{}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	logTable(b, &buf)
	b.ReportMetric(float64(last.ExecutedP50.Microseconds())/1000, "executed-ms")
	b.ReportMetric(float64(last.ResultHitP50.Microseconds())/1000, "resulthit-ms")
	b.ReportMetric(last.ResultSpeedup, "resulthit-speedup")
	for _, ts := range last.Tenants {
		b.ReportMetric(float64(ts.QueueP99.Microseconds())/1000, ts.Tenant+"-queue-p99-ms")
	}
}

// BenchmarkObsOverhead measures the cost of the always-on observability
// instrumentation (metric updates on the morsel/exchange hot paths plus
// trace assembly) by running the same distributed Q12 with instrumentation
// enabled and disabled, interleaved to cancel thermal/GC drift. The
// acceptance bar for obs-overhead-ratio is ≤ 1.02 (instrumented within 2%
// of the -noobs ablation).
func BenchmarkObsOverhead(b *testing.B) {
	c := benchCluster(b, 3)
	q := queries.MustBuild(12, queries.Params{SF: 0.05})
	defer obs.SetEnabled(true)

	run := func(enabled bool) time.Duration {
		obs.SetEnabled(enabled)
		start := time.Now()
		if _, _, err := c.RunContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm both paths before timing.
	run(true)
	run(false)

	// Interleaved samples compared at the 25th percentile: GC pauses and
	// scheduler hiccups only ever add time, so the fast quartile is the
	// cleanest view of the actual per-query cost in either mode.
	const pairs = 24
	b.ResetTimer()
	var on, off []time.Duration
	for i := 0; i < b.N; i++ {
		for p := 0; p < pairs; p++ {
			// Alternate which mode runs first so systematic drift within a
			// pair (cache warmth, background work) cancels.
			if p%2 == 0 {
				on = append(on, run(true))
				off = append(off, run(false))
			} else {
				off = append(off, run(false))
				on = append(on, run(true))
			}
		}
	}
	onQ, offQ := benchQuartile(on), benchQuartile(off)
	b.ReportMetric(onQ.Seconds()/offQ.Seconds(), "obs-overhead-ratio")
	b.ReportMetric(onQ.Seconds()*1000, "instrumented-ms")
	b.ReportMetric(offQ.Seconds()*1000, "noobs-ms")
}

func benchQuartile(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/4]
}

// BenchmarkThroughputMixed runs the Q1/Q12 mixed-stream variant.
func BenchmarkThroughputMixed(b *testing.B) {
	bench.Warmup()
	var buf bytes.Buffer
	var last bench.ThroughputResult
	for i := 0; i < b.N; i++ {
		buf.Reset()
		res, err := bench.Throughput{Queries: []int{1, 12}}.Run(&buf)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	logTable(b, &buf)
	b.ReportMetric(last.SerialQPS, "serial-qps")
	b.ReportMetric(last.ConcurrentQPS, "concurrent-qps")
	b.ReportMetric(last.Speedup, "speedup")
}
