package bench

import (
	"bytes"
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
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// Throughput measures multi-query throughput on one shared cluster: the
// same batch of TPC-H queries is executed once back-to-back (serial
// baseline) and once as N concurrent client streams running through a
// Session, reporting queries/second and the p50/p99 per-query latency of
// both modes. Concurrent streams overlap one query's network waits with
// another's compute — the wall-time win of making the whole stack
// multi-query.
type Throughput struct {
	Servers int // cluster size (default 3)
	Workers int // workers per server (default 4)
	Streams int // concurrent client streams (default 8)
	Rounds  int // queries issued per stream (default 1)
	// Queries are the TPC-H query numbers the streams cycle through
	// (stream i runs Queries[i%len]); default {12}.
	Queries []int
	// MaxConcurrent caps in-flight queries through the session (default:
	// Streams — every stream may be in flight).
	MaxConcurrent int
	SF            float64
	Transport     cluster.TransportKind
	// Rate is the link data rate; zero selects fabric.GbE (NOT the
	// transport's native default): the headline experiment runs RDMA
	// semantics on a GbE-speed link, isolating the wall-clock network
	// wait from TCP's modeled CPU cost. Pass the native rate (e.g.
	// fabric.IB4xQDR) explicitly to measure a fast link.
	Rate      fabric.Rate
	TimeScale float64 // default cluster.DefaultTimeScale
	// Scheduling overrides round-robin network scheduling (nil = on).
	Scheduling *bool
	// MessageSize overrides the exchange message size (0 = default 512 KB).
	MessageSize int
}

func (f *Throughput) defaults() {
	if f.Servers == 0 {
		f.Servers = 3
	}
	if f.Workers == 0 {
		f.Workers = 4
	}
	if f.Streams == 0 {
		f.Streams = 8
	}
	if f.Rounds == 0 {
		f.Rounds = 1
	}
	if len(f.Queries) == 0 {
		f.Queries = []int{12}
	}
	if f.MaxConcurrent == 0 {
		f.MaxConcurrent = f.Streams
	}
	if f.SF == 0 {
		// Small per-query working set: per-query wall time is dominated by
		// network waits rather than by a saturated resource, which is the
		// regime where multi-query execution reclaims idle time. (At much
		// larger SF the single simulated GbE-rate link — or, on a 1-core
		// host, the CPU — is already saturated serially and concurrency
		// cannot multiply throughput.)
		f.SF = 0.005
	}
	if f.Rate == 0 {
		// Default the link to GbE rate regardless of transport semantics:
		// the headline experiment runs the paper's multiplexer (RDMA
		// semantics, no per-byte CPU cost) on a slow link, so queries are
		// genuinely network-bound and the wall-clock waits are overlappable.
		f.Rate = fabric.GbE
	}
	if f.TimeScale == 0 {
		f.TimeScale = cluster.DefaultTimeScale
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
	Warmup()

	c, err := load(cluster.Config{
		Servers:          f.Servers,
		WorkersPerServer: f.Workers,
		Transport:        f.Transport,
		Rate:             f.Rate,
		Scheduling:       f.Scheduling == nil || *f.Scheduling,
		TimeScale:        f.TimeScale,
		MessageSize:      f.MessageSize,
	}, Workload{SF: f.SF})
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
		warm := c.NewSession(cluster.SessionConfig{MaxConcurrent: f.MaxConcurrent, MaxQueued: f.Streams})
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
		res.SerialResults[i] = CanonicalRows(out)
	}
	res.SerialWall = time.Since(serialStart)

	// Concurrent mode: Streams client goroutines, each issuing Rounds
	// queries through one admission-controlled session.
	sess := c.NewSession(cluster.SessionConfig{
		MaxConcurrent: f.MaxConcurrent,
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
				res.ConcurrentResults[i] = CanonicalRows(out)
			}
		}(s)
	}
	wg.Wait()
	res.ConcurrentWireBytes = concWire.Load()
	res.ConcurrentWall = time.Since(concStart)
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

	if w != nil {
		tab := &Table{
			Title: fmt.Sprintf("Multi-query throughput — %d×q%v streams, %d servers, %v, SF %g",
				f.Streams, f.Queries, f.Servers, f.Transport, f.SF),
			Header: []string{"mode", "queries", "wall", "qps", "p50", "p99", "wire"},
		}
		tab.Add("serial", fmt.Sprintf("%d", total), Dur(res.SerialWall),
			F2(res.SerialQPS), Dur(res.SerialP50), Dur(res.SerialP99), MB(res.SerialWireBytes))
		tab.Add("concurrent", fmt.Sprintf("%d", total), Dur(res.ConcurrentWall),
			F2(res.ConcurrentQPS), Dur(res.ConcurrentP50), Dur(res.ConcurrentP99), MB(res.ConcurrentWireBytes))
		tab.Fprint(w)
		fmt.Fprintf(w, "throughput speedup: %.2fx\n", res.Speedup)
	}
	return res, nil
}

// CanonicalRows serializes a batch into a canonical byte string: every row
// is wire-encoded separately (the codec is deterministic for a schema) and
// the encoded rows are sorted before concatenation. Result row *order* is
// scheduling-dependent — hash tables drain in worker order — so byte-exact
// conformance across serial and concurrent executions compares canonical
// encodings.
func CanonicalRows(b *storage.Batch) []byte {
	c := ser.NewCodec(b.Schema)
	rows := make([][]byte, b.Rows())
	for i := range rows {
		rows[i] = c.EncodeRow(b, i, nil)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
	var out []byte
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}
