package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/obs"
	"hsqp/internal/serve"
)

// tracer is the benchmark's own span recorder. It instruments nothing
// inside the program: every span is synthesised, after the operation
// returned, from the statistics the public API handed back (QueryStats,
// ExecStats), and the same statistics are summed into the per-layer
// budget. A span is an obs.Span on the track of its operation (TID = the
// operation's number), with its own id, the id of the span that caused it
// (0: none) and the operation's number in Args. Spans stay in memory until
// the run ends.
type tracer struct {
	mu     sync.Mutex
	trace  *obs.Trace
	nextID int
	ops    int

	executed  int // operations that ran on the cluster
	withStats int // of those, with per-pipeline statistics (direct runs)

	compile, exec, overhead, queueWait time.Duration
	firstDispatch                      time.Duration
	overlap                            float64
	opTime, sinkTime, sendTime         time.Duration
	opRows, opAllocs                   int64
	sendBytes, sendRows                uint64

	resultHits, planHits int
	hitLat               []float64 // µs, result-cache hits
	wireOverhead         time.Duration
}

func newTracer() *tracer { return &tracer{trace: obs.NewTrace(0)} }

func (t *tracer) add(name, cat string, query, parent int, start, end time.Duration) int {
	t.nextID++
	t.trace.Add(obs.Span{Name: name, Cat: cat, PID: 1, TID: query, Start: start, Dur: end - start,
		Args: map[string]any{"id": t.nextID, "parent": parent, "query": query}})
	return t.nextID
}

// query records one direct Cluster.RunContext call.
func (t *tracer) query(s sample, qs *cluster.QueryStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.executed++
	t.withStats++
	q := t.ops
	root := t.add(fmt.Sprintf("q%02d", s.kind), "query", q, 0, s.start, s.start+s.lat)
	// RunContext returns right after execution, so the compile and exec
	// intervals are placed back from the operation's end; what precedes
	// them is plan construction and anything else outside Duration.
	execStart := s.start + s.lat - qs.Exec
	t.add("compile", "cluster", q, root, execStart-qs.Compile, execStart)
	ex := t.add("exec", "cluster", q, root, execStart, execStart+qs.Exec)

	t.compile += qs.Compile
	t.exec += qs.Exec
	t.overhead += s.lat - qs.Duration
	t.queueWait += qs.QueueWait
	t.firstDispatch += qs.SchedulerDelay()
	t.overlap += qs.MaxOverlap()
	for server, ps := range qs.PipelineStats {
		for _, p := range ps {
			if p.Skipped || p.End <= p.Start {
				continue
			}
			cat := "engine"
			if strings.HasPrefix(p.SinkName, "send(") {
				cat = "exchange"
			}
			t.add(fmt.Sprintf("s%d %s", server, p.Name), cat, q, ex, execStart+p.Start, execStart+p.End)
			var ops time.Duration
			for _, o := range p.Ops {
				ops += o.Time
				t.opRows += o.RowsIn
				t.opAllocs += o.Allocs
			}
			t.opTime += ops
			rest := p.Busy - ops
			if rest < 0 {
				rest = 0
			}
			if cat == "exchange" {
				t.sendTime += rest
				t.sendBytes += p.SinkBytes
				t.sendRows += p.SinkRows
			} else {
				t.sinkTime += rest
			}
		}
	}
}

// request records one served request.
func (t *tracer) request(s sample, es serve.ExecStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	q := t.ops
	root := t.add(fmt.Sprintf("q%02d", s.kind), "request", q, 0, s.start, s.start+s.lat)
	t.wireOverhead += es.Wall - es.Total
	if es.PlanHit {
		t.planHits++
	}
	if es.ResultHit {
		t.resultHits++
		t.hitLat = append(t.hitLat, float64(s.lat)/float64(time.Microsecond))
		return
	}
	t.executed++
	// The server reports phase lengths, not instants; lay them end to end
	// from the request's start.
	at := s.start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"queue", es.QueueWait}, {"compile", es.Compile}, {"exec", es.Exec}} {
		t.add(ph.name, "cluster", q, root, at, at+ph.d)
		at += ph.d
	}
	t.compile += es.Compile
	t.exec += es.Exec
	t.queueWait += es.QueueWait
	t.overhead += s.lat - es.Compile - es.Exec - es.QueueWait
}

// writeChrome writes the spans as Chrome trace_event JSON.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.trace.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a point-in-time reading of everything the program exposes
// as a running total: the obs registry (through its text exposition and
// obs's own parser, the way an operator's scraper reads it), the
// multiplexers, the message pools, the fabric and the serving caches.
type counters struct {
	obs                          *obs.SampleSet
	muxSent, muxLocal, muxStolen uint64
	poolAllocated                uint64
	fabricBytes, fabricDropped   uint64
	resultEvictions              uint64
}

func (f *fixture) counters() (counters, error) {
	var buf bytes.Buffer
	if err := obs.Default().WriteText(&buf); err != nil {
		return counters{}, err
	}
	parsed, err := obs.ParseText(&buf)
	if err != nil {
		return counters{}, err
	}
	c := counters{obs: obs.NewSampleSet(parsed)}
	for _, n := range f.c.Nodes {
		ms := n.Mux.Stats()
		c.muxSent += ms.MsgsSent
		c.muxLocal += ms.LocalMsgs
		c.muxStolen += ms.StolenMsgs
		c.poolAllocated += n.Pool.Stats().Allocated
	}
	c.fabricBytes = f.c.Fabric().BytesDelivered()
	c.fabricDropped = f.c.Fabric().MessagesDropped()
	if f.srv != nil {
		c.resultEvictions = f.srv.ResultCacheStats().Evictions
	}
	return c, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns one traced pass into the per-layer budget. Values are
// per operation unless the name says otherwise. A metric whose source the
// workload does not expose from outside (per-pipeline statistics on
// serve_mix, serving statistics elsewhere) reads 0.
func layerMetrics(f *fixture, t *tracer, res passResult, before, after counters) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	delta := func(name string) float64 { return after.obs.Sum(name) - before.obs.Sum(name) }
	ops := float64(t.ops)
	executed := float64(t.executed)
	direct := float64(t.withStats)

	put("cluster.compile_ms", ratio(ms(t.compile), executed), "ms")
	put("cluster.exec_ms", ratio(ms(t.exec), executed), "ms")
	put("cluster.overhead_ms", ratio(ms(t.overhead), executed), "ms")
	put("cluster.queue_wait_ms", ratio(ms(t.queueWait), executed), "ms")
	put("cluster.restarts", ratio(delta("hsqp_cluster_query_restarts_total"), executed), "count")
	kinds, lat := executedLatencies(res)
	put("cluster.slowdown_p95", percentile(slowdowns(kinds, lat), 95), "ratio")

	busy := delta("hsqp_engine_busy_nanoseconds_total") / 1e6
	put("engine.busy_ms", ratio(busy, executed), "ms")
	put("engine.busy_frac", ratio(busy, ms(t.exec)*workersPerServer*servers), "ratio")
	put("engine.finalize_ms", ratio(delta("hsqp_engine_finalize_nanoseconds_total")/1e6, executed), "ms")
	put("engine.morsels", ratio(delta("hsqp_engine_morsels_total"), executed), "count")
	put("engine.steals", ratio(delta("hsqp_engine_steals_total"), executed), "count")
	put("engine.first_dispatch_ms", ratio(ms(t.firstDispatch), direct), "ms")
	put("engine.overlap_ratio", ratio(t.overlap, direct), "ratio")

	put("op.time_ms", ratio(ms(t.opTime), direct), "ms")
	put("op.ns_per_row", ratio(float64(t.opTime), float64(t.opRows)), "ns")
	put("op.batch_allocs", ratio(float64(t.opAllocs), direct), "count")
	put("op.sink_ms", ratio(ms(t.sinkTime), direct), "ms")

	put("exchange.send_ms", ratio(ms(t.sendTime), direct), "ms")
	put("exchange.wire_kb", ratio(delta("hsqp_exchange_wire_bytes_total")/1024, executed), "KB")
	put("exchange.messages", ratio(delta("hsqp_exchange_messages_total"), executed), "count")
	put("exchange.bytes_per_row", ratio(float64(t.sendBytes), float64(t.sendRows)), "B")

	sent := float64(after.muxSent - before.muxSent)
	local := float64(after.muxLocal - before.muxLocal)
	put("mux.send_stall_ms", ratio(delta("hsqp_mux_send_stall_nanoseconds_total")/1e6, executed), "ms")
	put("mux.recv_stall_ms", ratio(delta("hsqp_mux_recv_stall_nanoseconds_total")/1e6, executed), "ms")
	put("mux.stolen_frac", ratio(float64(after.muxStolen-before.muxStolen), sent+local), "ratio")
	put("mux.local_frac", ratio(local, sent+local), "ratio")
	put("mux.dropped_msgs", delta("hsqp_mux_dropped_messages_total"), "count")

	cfg := f.c.Config()
	wireSeconds := float64(after.fabricBytes-before.fabricBytes) / float64(cfg.Rate) * cfg.TimeScale
	put("fabric.link_util", ratio(wireSeconds, t.exec.Seconds()*servers), "ratio")
	put("fabric.msgs_dropped", float64(after.fabricDropped-before.fabricDropped), "count")

	put("memory.pool_registrations", float64(after.poolAllocated-before.poolAllocated), "count")

	put("serve.result_hit_us", median(t.hitLat), "us")
	served := 0.0
	if f.w.serve {
		served = ops
	}
	put("serve.result_hit_frac", ratio(float64(t.resultHits), served), "ratio")
	put("serve.plan_hit_frac", ratio(float64(t.planHits), served), "ratio")
	put("serve.result_evictions", float64(after.resultEvictions-before.resultEvictions), "count")
	put("serve.queue_wait_ms", ratio(delta("hsqp_serve_queue_wait_seconds_sum")*1e3, served), "ms")
	put("serve.wire_overhead_ms", ratio(ms(t.wireOverhead), served), "ms")
	put("serve.bytes_out_per_req", ratio(delta("hsqp_serve_bytes_out_total"), served), "B")

	put("process.gc_pause_ms", ratio(float64(res.mem.gcPauseNs)/1e6, ops), "ms")
	put("process.gc_cycles", ratio(float64(res.mem.gcCycles), ops), "count")
	return m
}
