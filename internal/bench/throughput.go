package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/fabric"
	"hsqp/internal/queries"
	"hsqp/internal/report"
	"hsqp/internal/ser"
)

// Throughput measures multi-query throughput on one shared cluster: the
// same batch of TPC-H queries is executed once back-to-back (serial
// baseline) and once as N concurrent client streams running through a
// Session, reporting queries/second and the p50/p99 per-query latency of
// both modes. Concurrent streams overlap one query's network waits with
// another's compute — the wall-time win of making the whole stack
// multi-query.
type Throughput struct {
	Setup       // 3 servers × 4 workers by default
	Streams int // concurrent client streams (default 8), all admitted at once
	Rounds  int // queries issued per stream (default 1)
	// Queries are the TPC-H query numbers the streams cycle through
	// (stream i runs Queries[i%len]); default {12}.
	Queries []int
	SF      float64
}

func (f *Throughput) defaults() {
	f.Setup = f.withDefaults()
	if f.Streams == 0 {
		f.Streams = 8
	}
	if f.Rounds == 0 {
		f.Rounds = 1
	}
	if len(f.Queries) == 0 {
		f.Queries = []int{12}
	}
	if f.SF == 0 {
		// Small per-query working set: per-query wall time is dominated by
		// network waits rather than by a saturated resource, which is the
		// regime where multi-query execution reclaims idle time. Those
		// waits are link latency: every frame is delivered one latency
		// after its pacing (4.08 ms of wall time at GbE and the default
		// time scale), and each round-robin phase waits for its barrier
		// frame. The latency occupies no link, so a query alone leaves the
		// links mostly idle (LinkUtil) and concurrent streams fill them.
		// (At much larger SF the single simulated GbE-rate link — or, on a
		// 1-core host, the CPU — is already saturated serially and
		// concurrency cannot multiply throughput.)
		f.SF = 0.005
	}
}

// ThroughputResult reports both modes of one Throughput run.
type ThroughputResult struct {
	Queries        int // total queries executed per mode
	SerialWall     time.Duration
	ConcurrentWall time.Duration
	SerialQPS      float64
	ConcurrentQPS  float64
	Speedup        float64 // ConcurrentQPS / SerialQPS
	SerialP50      time.Duration
	SerialP99      time.Duration
	ConcurrentP50  time.Duration
	ConcurrentP99  time.Duration
	// SerialWireBytes/ConcurrentWireBytes sum each mode's per-query exact
	// wire bytes (from the queries' own exchange sends), so the byte
	// accounting stays exact even while queries share the cluster.
	SerialWireBytes     uint64
	ConcurrentWireBytes uint64
	// SerialLinkUtil/ConcurrentLinkUtil are the share of the cluster's
	// link time each mode kept busy: fabric bytes at the link rate, over
	// wall time × servers.
	SerialLinkUtil     float64
	ConcurrentLinkUtil float64
	// Results holds one canonical per-query result encoding per batch
	// entry, serial mode first — the conformance hook for tests.
	SerialResults     [][]byte
	ConcurrentResults [][]byte
}

// percentile returns the nearest-rank percentile: for small samples
// (8 streams) p99 is the maximum, so a single straggler query is visible
// in the tracked tail-latency metric instead of being truncated away.
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// Run executes the workload and prints a two-row table.
func (f Throughput) Run(w io.Writer) (ThroughputResult, error) {
	f.defaults()
	warmup()

	// The paper's multiplexer (RDMA semantics, no per-byte CPU cost) on a
	// GbE-rate link rather than the transport's native rate: queries are
	// genuinely network-bound, so the wall-clock waits are overlappable and
	// are not mixed with TCP's modeled CPU cost.
	cfg := f.config(cluster.RDMA, true)
	cfg.Rate = fabric.GbE
	c, err := load(cfg, Workload{SF: f.SF}.fill)
	if err != nil {
		return ThroughputResult{}, err
	}
	defer c.Close()

	total := f.Streams * f.Rounds
	qn := func(i int) int { return f.Queries[i%len(f.Queries)] }

	res := ThroughputResult{
		Queries:           total,
		SerialResults:     make([][]byte, total),
		ConcurrentResults: make([][]byte, total),
	}

	// Steady-state warmup: run the concurrent batch once unmeasured. The
	// multi-query working set needs several times the buffers of a single
	// query, and registering a fresh buffer with the HCA costs real
	// (modeled) CPU — the paper amortizes registration by pool reuse
	// (§2.2.2), so throughput is measured against warm pools, the way a
	// continuously serving cluster runs. Both measured phases share the
	// warmed state, keeping the comparison fair.
	{
		var wwg sync.WaitGroup
		warm := c.NewSession(cluster.SessionConfig{MaxConcurrent: f.Streams, MaxQueued: f.Streams})
		for s := 0; s < f.Streams; s++ {
			wwg.Add(1)
			go func(s int) {
				defer wwg.Done()
				q, err := queries.Build(qn(s), queries.Params{SF: f.SF})
				if err != nil {
					return
				}
				_, _, _ = warm.RunContext(context.Background(), q)
			}(s)
		}
		wwg.Wait()
		warm.Close()
	}

	// Serial baseline: the same queries, back to back on the same cluster.
	serialLat := make([]time.Duration, total)
	fabricBytes := c.Fabric().BytesDelivered()
	serialStart := time.Now()
	for i := 0; i < total; i++ {
		q, err := queries.Build(qn(i), queries.Params{SF: f.SF})
		if err != nil {
			return res, err
		}
		t0 := time.Now()
		out, stats, err := c.RunContext(context.Background(), q)
		if err != nil {
			return res, fmt.Errorf("bench: serial q%d: %w", qn(i), err)
		}
		serialLat[i] = time.Since(t0)
		res.SerialWireBytes += stats.WireBytes()
		res.SerialResults[i] = ser.CanonicalRows(out)
	}
	res.SerialWall = time.Since(serialStart)
	res.SerialLinkUtil = linkUtil(c, c.Fabric().BytesDelivered()-fabricBytes, res.SerialWall)

	// Concurrent mode: Streams client goroutines, each issuing Rounds
	// queries through one admission-controlled session.
	sess := c.NewSession(cluster.SessionConfig{
		MaxConcurrent: f.Streams,
		MaxQueued:     total, // a benchmark client never gets rejected
	})
	defer sess.Close()
	concLat := make([]time.Duration, total)
	errs := make([]error, f.Streams)
	// Accumulated in a typed atomic and published to the plain result
	// field only after wg.Wait(): mixing atomic adds with plain reads of
	// the same field is a race (atomicmix).
	var concWire atomic.Uint64
	var wg sync.WaitGroup
	fabricBytes = c.Fabric().BytesDelivered()
	concStart := time.Now()
	for s := 0; s < f.Streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < f.Rounds; r++ {
				i := s + r*f.Streams
				q, err := queries.Build(qn(i), queries.Params{SF: f.SF})
				if err != nil {
					errs[s] = err
					return
				}
				t0 := time.Now()
				out, stats, err := sess.RunContext(context.Background(), q)
				if err != nil {
					errs[s] = fmt.Errorf("bench: stream %d q%d: %w", s, qn(i), err)
					return
				}
				concLat[i] = time.Since(t0)
				concWire.Add(stats.WireBytes())
				res.ConcurrentResults[i] = ser.CanonicalRows(out)
			}
		}(s)
	}
	wg.Wait()
	res.ConcurrentWireBytes = concWire.Load()
	res.ConcurrentWall = time.Since(concStart)
	res.ConcurrentLinkUtil = linkUtil(c, c.Fabric().BytesDelivered()-fabricBytes, res.ConcurrentWall)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	res.SerialQPS = float64(total) / res.SerialWall.Seconds()
	res.ConcurrentQPS = float64(total) / res.ConcurrentWall.Seconds()
	if res.SerialQPS > 0 {
		res.Speedup = res.ConcurrentQPS / res.SerialQPS
	}
	res.SerialP50 = percentile(serialLat, 0.50)
	res.SerialP99 = percentile(serialLat, 0.99)
	res.ConcurrentP50 = percentile(concLat, 0.50)
	res.ConcurrentP99 = percentile(concLat, 0.99)

	tab := &report.Table{
		Title: fmt.Sprintf("Multi-query throughput — %d×q%v streams, %d servers, %v, SF %g",
			f.Streams, f.Queries, f.Servers, cfg.Transport, f.SF),
		Header: []string{"mode", "queries", "wall", "qps", "p50", "p99", "wire", "link util"},
	}
	tab.Add("serial", fmt.Sprintf("%d", total), report.Dur(res.SerialWall),
		report.F2(res.SerialQPS), report.Dur(res.SerialP50), report.Dur(res.SerialP99), report.MB(res.SerialWireBytes),
		report.F2(res.SerialLinkUtil))
	tab.Add("concurrent", fmt.Sprintf("%d", total), report.Dur(res.ConcurrentWall),
		report.F2(res.ConcurrentQPS), report.Dur(res.ConcurrentP50), report.Dur(res.ConcurrentP99), report.MB(res.ConcurrentWireBytes),
		report.F2(res.ConcurrentLinkUtil))
	tab.Fprint(w)
	fmt.Fprintf(w, "throughput speedup: %.2fx\n", res.Speedup)
	return res, nil
}

// linkUtil is the share of the cluster's link time that bytes delivered
// by the fabric over wall kept busy.
func linkUtil(c *cluster.Cluster, bytes uint64, wall time.Duration) float64 {
	cfg := c.Config()
	busy := float64(bytes) / float64(cfg.Rate) * cfg.TimeScale
	return busy / (wall.Seconds() * float64(cfg.Servers))
}

// throughput runs -concurrency streams of Q12 (two rounds of a Q1/Q12 mix
// under -full). The scale factor is the experiment's own (see defaults),
// not -sf.
func throughput(w io.Writer, a Args) error {
	f := Throughput{Setup: a.Setup, Streams: a.Streams}
	if a.Full {
		f.Queries = []int{1, 12}
		f.Rounds = 2
	}
	_, err := f.Run(w)
	return err
}
