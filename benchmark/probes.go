package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/engine"
	"hsqp/internal/exchange"
	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/op"
	"hsqp/internal/queries"
	"hsqp/internal/rdma"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// A probe calls one layer's exported functions directly, on the TPC-H
// columns of the run's database, with no other layer in the way. Each
// probe gets an equal share of the budget, split into probeReps
// repetitions whose median is reported.
const (
	probeCount = 18 // calls to measure, measurePings and pacingError below
	probeReps  = 5
)

// hashSink keeps the compiler from discarding the hash probes' results.
var hashSink uint32

// measure repeats fn, which does some work and returns how many units it
// did, and reports the median over probeReps repetitions of the time and
// of the heap allocations per unit.
func measure(per time.Duration, fn func() int) (nsPerUnit, allocsPerUnit float64) {
	var ns, allocs []float64
	for r := 0; r < probeReps; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		units := 0
		t0 := time.Now()
		for units == 0 || time.Since(t0) < per/probeReps {
			units += fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(d)/float64(units))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(units))
	}
	return median(ns), median(allocs)
}

// clusterProbes are the probes that need the workload's loaded cluster.
func clusterProbes(f *fixture, budget time.Duration, m map[string]metric) error {
	per := budget / probeCount
	var err error
	buildNs, _ := measure(per, func() int {
		for _, q := range f.w.statements {
			if _, e := queries.Build(q, queries.Params{SF: f.sf}); e != nil {
				err = e
			}
		}
		return len(f.w.statements)
	})
	prepareNs, _ := measure(per, func() int {
		for _, q := range f.w.statements {
			if _, e := f.c.Prepare(queries.MustBuild(q, queries.Params{SF: f.sf})); e != nil {
				err = e
			}
		}
		return len(f.w.statements)
	})
	m["plan.build_us"] = metric{buildNs / 1e3, "us"}
	m["plan.prepare_ms"] = metric{prepareNs / 1e6, "ms"}
	return err
}

// layerProbes are the probes that need only the generated database.
func layerProbes(db *tpch.Database, budget time.Duration, m map[string]metric) error {
	per := budget / probeCount
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	worker := &engine.Worker{}
	lineitem, orders := db.Tables["lineitem"], db.Tables["orders"]
	liMorsels := op.SplitIntoMorsels([]*storage.Batch{lineitem}, engine.DefaultMorselSize)
	ordMorsels := op.SplitIntoMorsels([]*storage.Batch{orders}, engine.DefaultMorselSize)
	li := func(name string) int { return lineitem.Schema.MustColIndex(name) }

	// engine: what the scheduler adds per morsel when source, operators and
	// sink cost nothing.
	eng, err := engine.New(engine.Config{Topology: numa.TwoSocket(), Workers: workersPerServer})
	if err != nil {
		return err
	}
	one := storage.NewBatch(storage.NewSchema(storage.Field{Name: "k", Type: storage.TInt64}), 1)
	one.AppendRow(int64(1))
	const morsels = 4096
	empties := make([]*storage.Batch, morsels)
	for i := range empties {
		empties[i] = one
	}
	dispatchNs, _ := measure(per, func() int {
		g := &engine.Graph{Pipelines: []*engine.Pipeline{{Name: "noop", Source: op.NewBatchSource(empties), Sink: noopSink{}}}}
		if _, e := eng.RunGraph(g, engine.RunOptions{Coordinator: true}); e != nil {
			err = e
		}
		return morsels
	})
	eng.Close()
	if err != nil {
		return err
	}
	put("engine.dispatch_ns_per_morsel", dispatchNs, "ns")

	// op: the join, group-by and fused kernels, one worker, no scheduler.
	ordKey := []int{orders.Schema.MustColIndex("o_orderkey")}
	newBuild := func() *op.JoinBuild {
		jb := op.NewJoinBuild(orders.Schema, ordKey)
		for _, b := range ordMorsels {
			jb.Consume(worker, b)
		}
		if e := jb.Finalize(); e != nil {
			err = e
		}
		return jb
	}
	buildNs, _ := measure(per, func() int { newBuild(); return orders.Rows() })
	put("op.join_build_ns_per_row", buildNs, "ns")

	probe := op.NewJoinProbe(newBuild(), op.Inner, lineitem.Schema, []int{li("l_orderkey")},
		[]int{li("l_extendedprice")}, []int{orders.Schema.MustColIndex("o_custkey")}, nil)
	probeNs, _ := measure(per, func() int {
		for _, b := range liMorsels {
			probe.Process(worker, b)
		}
		return lineitem.Rows()
	})
	put("op.join_probe_ns_per_row", probeNs, "ns")

	// Q1's aggregation: two string keys, four groups, three aggregates.
	groupNs, groupAllocs := measure(per, func() int {
		g := op.NewGroupBy(lineitem.Schema, []int{li("l_returnflag"), li("l_linestatus")}, []op.AggSpec{
			{Kind: op.Sum, Name: "qty", Arg: op.Col(li("l_quantity")), ArgType: storage.TDecimal},
			{Kind: op.Sum, Name: "price", Arg: op.Col(li("l_extendedprice")), ArgType: storage.TDecimal},
			{Kind: op.Count, Name: "n"},
		}, 1)
		for _, b := range liMorsels {
			g.Consume(worker, b)
		}
		return lineitem.Rows()
	})
	put("op.groupby_ns_per_row", groupNs, "ns")
	put("op.groupby_allocs_per_row", groupAllocs, "count")

	// Q6-shaped fused stage: filter, one computed column, projection.
	revenue := op.NewMap(lineitem.Schema, []op.NamedExpr{{Name: "revenue", Type: storage.TDecimal,
		Expr: op.MulDec(op.Col(li("l_extendedprice")), op.Col(li("l_discount")))}})
	fused := op.NewFused([]engine.Op{
		&op.Filter{Pred: op.I64LT(li("l_shipdate"), storage.MustDate("1995-01-01"))},
		revenue,
		op.NewProject(revenue.Schema, []int{li("l_quantity"), len(lineitem.Schema.Fields)}),
	}, 1, true)
	fusedNs, _ := measure(per, func() int {
		for _, b := range liMorsels {
			fused.Process(worker, b)
		}
		return lineitem.Rows()
	})
	put("op.fused_ns_per_row", fusedNs, "ns")

	// storage: the row hash every join and aggregation calls per row.
	hash := func(keys ...int) func() int {
		return func() int {
			n := lineitem.Rows()
			for i := 0; i < n; i++ {
				hashSink ^= storage.HashRow(lineitem, keys, i)
			}
			return n
		}
	}
	i64Ns, _ := measure(per, hash(li("l_orderkey")))
	strNs, _ := measure(per, hash(li("l_shipmode")))
	_, hashAllocs := measure(per, hash(li("l_orderkey"), li("l_returnflag")))
	put("storage.hash_i64_ns", i64Ns, "ns")
	put("storage.hash_str_ns", strNs, "ns")
	put("storage.hash_allocs_per_row", hashAllocs, "count")

	// ser: the wire codec on one morsel of lineitem, the widest relation.
	codec := ser.NewCodec(lineitem.Schema)
	first := liMorsels[0]
	var wire []byte
	encode := func() int {
		wire = wire[:0]
		for r, n := 0, first.Rows(); r < n; r++ {
			wire = codec.EncodeRow(first, r, wire)
		}
		return first.Rows()
	}
	encNs, encAllocs := measure(per, encode)
	bytesPerRow := float64(len(wire)) / float64(first.Rows())
	dst := storage.NewBatch(lineitem.Schema, first.Rows())
	decNs, decAllocs := measure(per, func() int {
		dst.Reset()
		if _, e := codec.DecodeAll(wire, dst); e != nil {
			err = e
		}
		return first.Rows()
	})
	if err != nil {
		return err
	}
	put("ser.encode_mb_s", ratio(bytesPerRow*1e9/(1<<20), encNs), "MB/s")
	put("ser.decode_mb_s", ratio(bytesPerRow*1e9/(1<<20), decNs), "MB/s")
	put("ser.encode_allocs_per_row", encAllocs, "count")
	put("ser.decode_allocs_per_row", decAllocs, "count")

	// memory: the pooled-buffer fast path.
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 0, nil)
	getNs, _ := measure(per, func() int {
		for i := 0; i < 1024; i++ {
			pool.Get(0).Release()
		}
		return 1024
	})
	put("memory.pool_get_ns", getNs, "ns")

	if err := meshProbes(lineitem, liMorsels, codec, per, put); err != nil {
		return err
	}
	perr, err := pacingError(per)
	put("fabric.pacing_error", perr, "ratio")
	return err
}

type noopSink struct{}

func (noopSink) Consume(*engine.Worker, *storage.Batch) {}
func (noopSink) Finalize() error                        { return nil }

// mesh is two multiplexers on RDMA endpoints over one fabric: the
// smallest network the exchange and multiplexer probes can run on.
type mesh struct {
	fab   *fabric.Fabric
	muxes []*mux.Mux
	eps   []*rdma.Endpoint
	pools []*memory.Pool
}

func newMesh(rate fabric.Rate, scale float64) (*mesh, error) {
	const ports = 2
	fab, err := fabric.New(fabric.Config{Ports: ports, Rate: rate, TimeScale: scale})
	if err != nil {
		return nil, err
	}
	n := &mesh{fab: fab}
	topo := numa.TwoSocket()
	for i := 0; i < ports; i++ {
		pool := memory.NewPool(topo, numa.AllocLocal, 0, nil)
		m, err := mux.New(mux.Config{Server: i, Servers: ports, Topology: topo, Pool: pool, Scheduling: true})
		if err != nil {
			return nil, err
		}
		ep := rdma.NewEndpoint(fab, i, m.RecvAlloc, m.OnRecv, m.OnInline)
		m.SetTransport(ep)
		n.muxes, n.eps, n.pools = append(n.muxes, m), append(n.eps, ep), append(n.pools, pool)
	}
	fab.Start()
	for i := range n.muxes {
		n.eps[i].Start()
		n.muxes[i].Start()
	}
	return n, nil
}

func (n *mesh) close() {
	for i := range n.muxes {
		n.muxes[i].Close()
		n.eps[i].Close()
	}
	n.fab.Stop()
}

// drain consumes an exchange on server until its senders finished (or the
// multiplexer closed) and returns a function that waits for that.
func (n *mesh) drain(server int, query, ex int32) (wait func()) {
	recv := n.muxes[server].OpenExchange(query, ex, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := recv.Recv(0); msg != nil; msg = recv.Recv(0) {
			msg.Release()
		}
	}()
	return func() { <-done }
}

// unpaced makes the simulated wire free, so a probe on it measures the
// code around the wire.
const unpaced = 1e-9

func meshProbes(lineitem *storage.Batch, liMorsels []*storage.Batch, codec *ser.Codec, per time.Duration,
	put func(string, float64, string)) error {
	worker := &engine.Worker{}
	free, err := newMesh(fabric.IB4xQDR, unpaced)
	if err != nil {
		return err
	}
	var ex int32

	// exchange: hash-partition and serialise lineitem towards two servers.
	var sendErr error
	routeNs, _ := measure(per, func() int {
		ex++
		waits := []func(){free.drain(0, 1, ex), free.drain(1, 1, ex)}
		send := exchange.NewSend(exchange.SendConfig{
			Mux: free.muxes[0], Pool: free.pools[0], QueryID: 1, ExID: ex, Mode: exchange.ModePartition,
			Servers: 2, Keys: []int{lineitem.Schema.MustColIndex("l_orderkey")}, Codec: codec,
			NumWorkers: 1, Topo: numa.TwoSocket(), Scale: unpaced,
		})
		for _, b := range liMorsels {
			send.Consume(worker, b)
		}
		if e := send.FinalizeOn(worker); e != nil {
			sendErr = e
		}
		for _, wait := range waits {
			wait()
		}
		return lineitem.Rows()
	})
	put("exchange.route_rows_per_s", ratio(1e9, routeNs), "1/s")

	// mux: small messages through Send, the network loop and Recv.
	msgNs, _ := measure(per, func() int {
		ex++
		wait := free.drain(1, 1, ex)
		const n = 256
		for i := 0; i < n; i++ {
			msg := free.pools[0].Get(0)
			msg.QueryID, msg.ExchangeID, msg.Sender, msg.Seq, msg.Last = 1, ex, 0, uint32(i), i == n-1
			msg.Content = msg.Content[:64]
			free.muxes[0].Send(1, msg)
		}
		wait()
		return n
	})
	put("mux.msgs_per_s_unpaced", ratio(1e9, msgNs), "1/s")
	free.muxes[0].CloseQuery(1)
	free.muxes[1].CloseQuery(1)
	free.close()
	if sendErr != nil {
		return sendErr
	}

	idle, loaded, err := pingProbes(per)
	put("mux.ping_rtt_us", idle, "us")
	put("mux.ping_rtt_loaded_us", loaded, "us")
	return err
}

// pingProbes times the failure detector's probe on the link stream_gberate
// runs on: alone, then behind a stream of full-size messages. The second
// is the head-of-line wait every query's watchdog pays under load.
func pingProbes(per time.Duration) (idle, loaded float64, err error) {
	gbe, err := newMesh(fabric.GbE, cluster.DefaultTimeScale)
	if err != nil {
		return 0, 0, err
	}
	if idle, err = measurePings(gbe.muxes[0], per); err != nil {
		gbe.close()
		return 0, 0, err
	}
	drained := gbe.drain(1, 1, 0)
	var stop atomic.Bool
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for seq := uint32(0); !stop.Load(); seq++ {
			msg := gbe.pools[0].Get(0)
			msg.QueryID, msg.ExchangeID, msg.Sender, msg.Seq = 1, 0, 0, seq
			msg.Content = msg.Content[:msg.Capacity()]
			gbe.muxes[0].Send(1, msg)
		}
	}()
	loaded, err = measurePings(gbe.muxes[0], per)
	// Closing the mesh unblocks the sender parked on the full send queue
	// and the receiver parked on the exchange.
	stop.Store(true)
	gbe.close()
	<-streamed
	drained()
	return idle, loaded, err
}

// measurePings returns the median round trip of the probes that fit in
// per (at least one).
func measurePings(m *mux.Mux, per time.Duration) (float64, error) {
	var rtts []float64
	for t0 := time.Now(); len(rtts) == 0 || time.Since(t0) < per; {
		p0 := time.Now()
		if !m.Ping(1, 10*time.Second) {
			return 0, fmt.Errorf("probe: ping to server 1 timed out")
		}
		rtts = append(rtts, float64(time.Since(p0))/float64(time.Microsecond))
	}
	return median(rtts), nil
}

// pacingError streams messages over a GbE link at the cluster's time scale
// and returns how far the delivered rate is from the configured one
// (|delivered ÷ configured − 1|). It bounds how far simulated wire time can
// be trusted on this machine.
func pacingError(per time.Duration) (float64, error) {
	const size = 64 << 10
	scale := cluster.DefaultTimeScale
	fab, err := fabric.New(fabric.Config{Ports: 2, Rate: fabric.GbE, TimeScale: scale})
	if err != nil {
		return 0, err
	}
	var mu sync.Mutex
	var arrivals []time.Time
	fab.RegisterSink(0, func(*fabric.Message) {})
	fab.RegisterSink(1, func(*fabric.Message) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
	})
	fab.Start()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			fab.Send(&fabric.Message{Src: 0, Dst: 1, Size: size})
		}
	}()
	wire := time.Duration(float64(size) / float64(fabric.GbE) * scale * float64(time.Second))
	for t0 := time.Now(); time.Since(t0) < per || time.Since(t0) < 4*wire; {
		time.Sleep(wire)
	}
	stop.Store(true)
	fab.Stop()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) < 3 {
		return 0, nil
	}
	// Intervals between arrivals: the first arrival only starts the clock.
	span := arrivals[len(arrivals)-1].Sub(arrivals[0]).Seconds()
	delivered := float64(size*(len(arrivals)-1)) / span
	return math.Abs(delivered/(float64(fabric.GbE)/scale) - 1), nil
}
