package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/tpch"
)

// QuickQueries is the default per-experiment query subset: a mix of
// scan-bound (1, 6), join/shuffle-bound (3, 5, 12) and aggregation-bound
// (14, 18) queries, so that transport and scheduling effects show without
// running the full suite per configuration.
var QuickQueries = []int{1, 3, 5, 6, 12, 14, 18}

// Workload fixes the dataset of an experiment.
type Workload struct {
	SF      float64
	Seed    uint64
	Queries []int
	// Partitioned selects partitioned placement (else chunked).
	Partitioned bool
	// Repeat runs each query this many times and keeps the fastest
	// (noise suppression). Zero means 2.
	Repeat int
}

func (w Workload) withDefaults() Workload {
	if w.SF == 0 {
		w.SF = 0.05
	}
	if w.Seed == 0 {
		w.Seed = 42
	}
	if len(w.Queries) == 0 {
		w.Queries = QuickQueries
	}
	if w.Repeat == 0 {
		w.Repeat = 2
	}
	return w
}

// fill loads the workload's database on c (the usual argument to load).
func (w Workload) fill(c *cluster.Cluster) {
	w = w.withDefaults()
	c.LoadTPCH(DB(w.SF, w.Seed), w.Partitioned)
}

// Setup is the deployment of an experiment. Zero fields select
// 3 servers × 4 workers at cluster.DefaultTimeScale unless the experiment
// documents its own default.
type Setup struct {
	Servers   int
	Workers   int // per server
	TimeScale float64
}

// or fills s's zero fields from d.
func (s Setup) or(d Setup) Setup {
	if s.Servers == 0 {
		s.Servers = d.Servers
	}
	if s.Workers == 0 {
		s.Workers = d.Workers
	}
	if s.TimeScale == 0 {
		s.TimeScale = d.TimeScale
	}
	return s
}

func (s Setup) withDefaults() Setup {
	return s.or(Setup{Servers: 3, Workers: 4, TimeScale: cluster.DefaultTimeScale})
}

// config returns the deployment on one transport: the harness's one
// cluster.Config literal. An experiment that needs more (a link rate, a
// topology, failure detection) sets those fields on the returned value.
func (s Setup) config(transport cluster.TransportKind, sched bool) cluster.Config {
	s = s.withDefaults()
	return cluster.Config{
		Servers:          s.Servers,
		WorkersPerServer: s.Workers,
		Transport:        transport,
		Scheduling:       sched,
		TimeScale:        s.TimeScale,
	}
}

// dbCache shares generated databases across experiments in one process.
var (
	dbMu    sync.Mutex
	dbCache = map[string]*tpch.Database{}
)

// DB returns the cached database for (sf, seed).
func DB(sf float64, seed uint64) *tpch.Database {
	key := fmt.Sprintf("%g/%d", sf, seed)
	dbMu.Lock()
	defer dbMu.Unlock()
	if db := dbCache[key]; db != nil {
		return db
	}
	db := tpch.Generate(sf, seed)
	dbCache[key] = db
	return db
}

// RunResult is the outcome of one TPC-H run on one configuration.
type RunResult struct {
	Times map[int]time.Duration
	Total time.Duration
	Stats cluster.QueryStats
	// Overlap is the highest per-server compute/communication overlap
	// ratio observed across the workload's queries (0 under serial
	// execution; > 0 means the DAG scheduler ran pipelines concurrently).
	Overlap float64
	// PeakPipelines is the maximum number of pipelines in flight at once
	// on any server across the workload.
	PeakPipelines int
}

// QpH extrapolates queries-per-hour from the run (like Figure 12(a)).
func (r RunResult) QpH() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(len(r.Times)) / r.Total.Hours()
}

// GeoMeanSeconds returns the geometric mean of the per-query times.
func (r RunResult) GeoMeanSeconds() float64 {
	ds := make([]time.Duration, 0, len(r.Times))
	for _, d := range r.Times {
		ds = append(ds, d)
	}
	return GeoMean(ds)
}

// GeoMean returns the geometric mean of positive durations, in seconds.
func GeoMean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ds {
		s := d.Seconds()
		if s <= 0 {
			s = 1e-9
		}
		sum += math.Log(s)
	}
	return math.Exp(sum / float64(len(ds)))
}

// warmupOnce runs a throwaway workload once per process before the first
// measurement: thread-pool ramp-up, heap sizing and CPU frequency state
// otherwise penalize whichever configuration happens to run first.
var warmupOnce sync.Once

// warmup primes the process; every timed TPC-H entry point calls it.
func warmup() {
	warmupOnce.Do(func() {
		wl := Workload{SF: 0.02, Queries: []int{1, 5, 18}, Repeat: 1}
		c, err := load(Setup{Servers: 2, TimeScale: 1}.config(cluster.RDMA, true), wl.fill)
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = RunOnCluster(c, wl)
	})
}

// load is the harness's one way to a running cluster: it builds cfg's
// deployment and lets fill load its tables (Workload.fill for TPC-H).
func load(cfg cluster.Config, fill func(*cluster.Cluster)) (*cluster.Cluster, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	fill(c)
	return c, nil
}

// RunTPCH executes the workload's queries on a fresh cluster built from
// cfg and tears the cluster down again.
func RunTPCH(cfg cluster.Config, w Workload) (RunResult, error) {
	res, err := RunVariants(cfg, w, plan.Options{})
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// RunVariants is RunTPCH for an A/B: one cluster is built and loaded, and
// the workload runs on it once per plan variant, so every side sees the
// same placements and warmed pools.
func RunVariants(cfg cluster.Config, w Workload, variants ...plan.Options) ([]RunResult, error) {
	warmup()
	c, err := load(cfg, w.fill)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([]RunResult, len(variants))
	for i, po := range variants {
		if out[i], err = RunOnCluster(c, w, cluster.WithPlan(po)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunOnCluster executes the workload's queries on an existing, loaded
// cluster under the given run options (cluster.WithPlan for an A/B on the
// same cluster).
func RunOnCluster(c *cluster.Cluster, w Workload, opts ...cluster.RunOption) (RunResult, error) {
	w = w.withDefaults()
	res := RunResult{Times: make(map[int]time.Duration, len(w.Queries))}
	for _, q := range w.Queries {
		qp, err := queries.Build(q, queries.Params{SF: w.SF})
		if err != nil {
			return res, err
		}
		var best cluster.QueryStats
		for r := 0; r < w.Repeat; r++ {
			_, stats, err := c.RunContext(context.Background(), qp, opts...)
			if err != nil {
				return res, fmt.Errorf("bench: q%d: %w", q, err)
			}
			if r == 0 || stats.Duration < best.Duration {
				best = stats
			}
		}
		res.Times[q] = best.Duration
		res.Total += best.Duration
		res.Stats.BytesSent += best.BytesSent
		res.Stats.MessagesSent += best.MessagesSent
		res.Stats.StolenMsgs += best.StolenMsgs
		res.Stats.LocalMsgs += best.LocalMsgs
		if o := best.MaxOverlap(); o > res.Overlap {
			res.Overlap = o
		}
		if cc := best.PeakConcurrentPipelines(); cc > res.PeakPipelines {
			res.PeakPipelines = cc
		}
	}
	return res, nil
}
