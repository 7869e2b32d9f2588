package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/fabric"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/serve"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// Every workload runs on the same cluster shape, so a difference between
// two workloads is a difference in load, not in deployment.
const (
	servers          = 3
	workersPerServer = 2
	serveSlots       = 2 // queries in flight on serve_mix
	serveClients     = 2 // closed-loop connections on serve_mix
)

// workload is one traffic mix. BENCHMARK.json records why each exists.
type workload struct {
	name       string
	sf         float64
	transport  cluster.TransportKind
	rate       fabric.Rate // zero: the transport's default
	statements []int       // TPC-H query numbers
	serve      bool        // drive through serve.Server on a loopback listener
}

var shortStatements = []int{1, 3, 5, 6, 12, 14, 18}

var workloads = []workload{
	{name: "power_rdma", sf: 0.05, transport: cluster.RDMA, statements: queries.All()},
	{name: "shuffle_gbe", sf: 0.02, transport: cluster.TCPGbE, statements: []int{3, 5, 9, 10, 17, 18, 21}},
	{name: "stream_gberate", sf: 0.01, transport: cluster.RDMA, rate: fabric.GbE, statements: shortStatements},
	{name: "serve_mix", sf: 0.01, transport: cluster.RDMA, statements: shortStatements, serve: true},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fixture is one set-up cluster with the expected result of every
// statement the workload issues.
type fixture struct {
	w    *workload
	sf   float64
	seed uint64
	db   *tpch.Database
	want map[int]digest
	c    *cluster.Cluster

	srv      *serve.Server
	serveErr chan error
	clients  []*serve.Client
	closing  sync.Once
}

// setup generates the database from the seed, computes the reference
// digests, builds and loads the cluster (and the serving tier), and runs
// one warm-up round so pools, codecs and caches are filled before anything
// is timed. Everything here is what setup_s measures.
func setup(w *workload, sf float64, seed uint64) (*fixture, error) {
	f := &fixture{w: w, sf: sf, seed: seed, want: map[int]digest{}}
	f.db = tpch.Generate(sf, seed)
	for _, q := range w.statements {
		r, err := ref.Run(q, f.db, sf)
		if err != nil {
			return nil, fmt.Errorf("reference q%d: %w", q, err)
		}
		f.want[q] = digestRef(q, r)
	}
	c, err := cluster.New(cluster.Config{
		Servers:          servers,
		WorkersPerServer: workersPerServer,
		Transport:        w.transport,
		Rate:             w.rate,
		Scheduling:       true,
	})
	if err != nil {
		return nil, err
	}
	f.c = c
	c.LoadTPCH(f.db, false)
	if w.serve {
		if err := f.startServing(); err != nil {
			f.close()
			return nil, err
		}
	}
	warm := f.run(runSpec{rounds: 1, warmup: true}, nil)
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("%s: warm-up round: %d of %d operations failed: %v",
			w.name, warm.failed, len(warm.samples), warm.firstErr)
	}
	return f, nil
}

func (f *fixture) startServing() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv = serve.New(serve.Config{Cluster: f.c, SF: f.sf, Seed: f.seed, Slots: serveSlots})
	f.serveErr = make(chan error, 1) // one send, from the Serve goroutine
	go func() { f.serveErr <- f.srv.Serve(lis) }()
	for i := 0; i < serveClients; i++ {
		cl, err := serve.Dial(lis.Addr().String(), "bench")
		if err != nil {
			return err
		}
		f.clients = append(f.clients, cl)
	}
	return nil
}

// close stops everything the fixture started and waits for it. Calling it
// again does nothing.
func (f *fixture) close() {
	f.closing.Do(func() {
		for _, cl := range f.clients {
			cl.Close()
		}
		if f.srv != nil {
			f.srv.Shutdown()
			<-f.serveErr
		}
		if f.c != nil {
			f.c.Close()
		}
	})
}

// sample is one operation as the client saw it.
type sample struct {
	kind     int           // TPC-H statement number
	start    time.Duration // since the pass began
	lat      time.Duration // client-observed latency
	executed bool          // false: answered from the result cache
}

// runSpec bounds one pass: whole rounds (at least one) until the duration
// has elapsed, or a fixed number of rounds when rounds > 0.
type runSpec struct {
	d      time.Duration
	rounds int
	warmup bool // serve: no cache bypass, so the result cache fills
}

// more reports whether a client that has finished n rounds starts another.
func (s runSpec) more(n int, start time.Time) bool {
	if s.rounds > 0 {
		return n < s.rounds
	}
	return n == 0 || time.Since(start) < s.d
}

// passResult is one measured pass.
type passResult struct {
	samples  []sample
	failed   int
	firstErr error
	wall     time.Duration
	mem      memDelta
}

type memDelta struct {
	allocBytes, mallocs, gcPauseNs uint64
	gcCycles                       uint32
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
		gcCycles:   after.NumGC - before.NumGC,
	}
}

// run drives the fixture closed-loop: each client issues its next
// operation only after the previous one returned and was checked. tr, when
// non-nil, receives every operation's statistics (the traced pass).
func (f *fixture) run(spec runSpec, tr *tracer) passResult {
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var res passResult
	if f.w.serve {
		res = f.runServe(spec, tr, start)
	} else {
		res = f.runDirect(spec, tr, start)
	}
	res.wall = time.Since(start)
	res.mem = memSince(&before)
	return res
}

func (r *passResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runDirect is one client calling Cluster.RunContext, statements in order.
func (f *fixture) runDirect(spec runSpec, tr *tracer, start time.Time) passResult {
	var res passResult
	ctx := context.Background()
	for round := 0; spec.more(round, start); round++ {
		for _, q := range f.w.statements {
			t0 := time.Now()
			plan, err := queries.Build(q, queries.Params{SF: f.sf})
			var got *storage.Batch
			var qs cluster.QueryStats
			if err == nil {
				got, qs, err = f.c.RunContext(ctx, plan)
			}
			lat := time.Since(t0)
			s := sample{kind: q, start: t0.Sub(start), lat: lat, executed: true}
			res.samples = append(res.samples, s)
			if err == nil {
				err = f.check(q, got)
			}
			if err != nil {
				res.fail(fmt.Errorf("q%d: %w", q, err))
				continue
			}
			if tr != nil {
				tr.query(s, &qs)
			}
		}
	}
	return res
}

// request is one entry of a serve_mix connection's schedule.
type request struct {
	q      int
	bypass bool
}

// runServe is serveClients connections, one goroutine each. A connection
// issues blocks of 4 × len(statements) requests: every statement four
// times, three of them bypassing the result cache, in an order a PRNG
// seeded from the run's seed shuffles per block. Whole blocks therefore
// have exactly the same composition whatever the seed, and only the
// interleaving of the two connections differs; independent draws would
// let the share of cheap cache hits drift by a few percent between seeds.
func (f *fixture) runServe(spec runSpec, tr *tracer, start time.Time) passResult {
	parts := make([]passResult, len(f.clients))
	var wg sync.WaitGroup
	for i, cl := range f.clients {
		wg.Add(1)
		go func(i int, cl *serve.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f.seed)*int64(len(f.clients)) + int64(i)))
			var block []request
			for _, q := range f.w.statements {
				block = append(block, request{q, false}, request{q, true}, request{q, true}, request{q, true})
			}
			res := &parts[i]
			for n := 0; spec.more(n/len(f.w.statements), start); n++ {
				if n%len(block) == 0 {
					rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
				}
				q, bypass := block[n%len(block)].q, block[n%len(block)].bypass
				if spec.warmup {
					q, bypass = f.w.statements[n%len(f.w.statements)], false
				}
				t0 := time.Now()
				got, es, err := cl.ExecWithOpts(fmt.Sprintf("q%d", q), serve.ExecOpts{BypassResultCache: bypass})
				lat := time.Since(t0)
				s := sample{kind: q, start: t0.Sub(start), lat: lat, executed: err == nil && !es.ResultHit}
				res.samples = append(res.samples, s)
				if err == nil {
					err = f.check(q, got)
				}
				if err != nil {
					// The protocol is strictly request/response: after an
					// error the connection's state is unknown, so this
					// client stops rather than issue requests that cannot
					// be trusted.
					res.fail(fmt.Errorf("client %d q%d: %w", i, q, err))
					return
				}
				if tr != nil {
					tr.request(s, es)
				}
			}
		}(i, cl)
	}
	wg.Wait()
	var res passResult
	for _, p := range parts {
		res.samples = append(res.samples, p.samples...)
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	return res
}

// check compares one result with the reference digest for its statement.
func (f *fixture) check(q int, got *storage.Batch) error {
	want := f.want[q]
	d := digestBatch(q, got)
	if d.rows != want.rows {
		return fmt.Errorf("got %d rows, reference has %d", d.rows, want.rows)
	}
	if d.hash != want.hash {
		return fmt.Errorf("result differs from reference (%d rows)", d.rows)
	}
	return nil
}
