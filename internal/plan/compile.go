package plan

import (
	"fmt"
	"slices"

	"hsqp/internal/engine"
	"hsqp/internal/exchange"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/op"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// TableInfo is what the compiler needs to know about a base relation on
// this server.
type TableInfo struct {
	Table *storage.Table
	// PartCols are the columns the relation is hash-partitioned on across
	// servers (nil for chunked placement).
	PartCols []int
	// Replicated marks relations fully present on every server.
	Replicated bool
	// Zones[col][server] is the [min, max] of an integer column on every
	// server (nil for a column without a zone map). The slice is the
	// cluster-wide catalog's, the same on every server, so a rule that
	// reads it compiles the same plan everywhere.
	Zones [][]exchange.Zone
}

// Options are the compile-time switches of one query: what the paper's
// evaluation varies over a fixed deployment (hybrid vs classic exchange in
// Figure 2, pre-aggregation in Figure 6(c), competitor engine styles in
// §4.3). The zero value is the paper's engine. They are set per query
// (cluster.WithPlan) and declared nowhere else.
type Options struct {
	// Classic compiles exchanges in the classic exchange-operator model
	// (n×t fixed parallel units, Figure 2 baseline).
	Classic bool
	// Skew tunes adaptive skew handling for SkewAdaptive joins (zero
	// values select the exchange package defaults).
	Skew exchange.SkewConfig
	// Serial executes each server's pipelines strictly in compile order
	// (the pre-DAG execution model) instead of scheduling the pipeline DAG
	// on the worker pool — kept as a reference path.
	Serial bool
	// DisablePreAgg turns off pre-aggregation before group-by exchanges.
	DisablePreAgg bool
	// NoPushdown disables join-input column pruning below exchange sends
	// (the wire-byte reduction).
	NoPushdown bool
	// AfterScan, if set, returns extra operators inserted after every base
	// relation scan (competitor engine styles model scan-time
	// deserialization and row-at-a-time interpretation here).
	AfterScan func(schema *storage.Schema) []engine.Op
	// AfterExchange, if set, returns extra operators inserted after every
	// receive-side exchange.
	AfterExchange func(schema *storage.Schema) []engine.Op
}

// Env is the per-server compilation environment.
type Env struct {
	Options
	// QueryID is the cluster-wide id of the query being compiled; it is
	// stamped into every exchange the plan opens so the multiplexer can
	// route concurrent queries' messages on (QueryID, ExchangeID).
	QueryID          int32
	ServerID         int
	Servers          int
	WorkersPerServer int
	Engine           *engine.Engine
	Mux              *mux.Mux
	Pool             *memory.Pool
	Topo             *numa.Topology
	Scale            float64
	// Lookup resolves a table name.
	Lookup func(name string) (TableInfo, error)
	// NextExID allocates globally consistent exchange ids; every server
	// must produce the same sequence for the same plan.
	NextExID func() int32
	// MorselSize for splitting materialized intermediates.
	MorselSize int
}

// stream is a partially compiled dataflow: a source plus pending operators.
type stream struct {
	source engine.Source
	ops    []engine.Op
	schema *storage.Schema
	// part: the stream is partitioned across servers on these columns by
	// the function by (nil = unknown/not partitioned).
	part []int
	// by: the partitioning function — a range map over part's one
	// integer column, or nil for CRC32. Two streams are aligned only under
	// the same function.
	by *exchange.RangeMap
	// zones[col][server] bounds an integer column's values on every server
	// (nil or past the end = unknown).
	zones [][]exchange.Zone
	// replicated: every server sees the full stream.
	replicated bool
	// coordOnly: the stream only exists on the coordinator.
	coordOnly bool
	// deps: pipeline indexes whose sinks must finalize before a pipeline
	// consuming this stream may start (hash builds, materialized
	// aggregates/sorts the source lazily reads). Exchange-receive streams
	// carry no deps — they poll the multiplexer and become runnable as
	// soon as the first message lands.
	deps []int
}

// Compiled is the result of compiling a query for one server: a pipeline
// DAG whose dependency edges (build-before-probe,
// materialize-before-consume, coordinator-merge-last) are emitted during
// compilation instead of being implied by slice order.
type Compiled struct {
	Pipelines []*engine.Pipeline
	// Deps[i] lists the pipelines that must finalize before Pipelines[i]
	// starts.
	Deps [][]int
	// Result collects the final rows (only populated on the coordinator).
	Result *op.Collector
	Schema *storage.Schema
	// serial is Options.Serial: Graph chains the pipelines in compile order.
	serial bool
}

// Graph returns the executable pipeline DAG — or, under Options.Serial,
// the chain that runs the same pipelines one after another.
func (c *Compiled) Graph() *engine.Graph {
	if c.serial {
		return engine.ChainGraph(c.Pipelines)
	}
	return &engine.Graph{Pipelines: c.Pipelines, Deps: c.Deps}
}

type compiler struct {
	env  *Env
	pipe []*engine.Pipeline
	deps [][]int
}

// Compile lowers a query to this server's pipelines.
func Compile(q *Query, env *Env) (*Compiled, error) {
	c := &compiler{env: env}
	out, err := c.build(q.Root)
	if err != nil {
		return nil, fmt.Errorf("plan: compile %s: %w", q.Name, err)
	}
	// The output pipeline runs on the coordinator, last: the stream is
	// gathered there unless it already is there.
	if env.Servers > 1 {
		out = c.gather(q.Name+"/gather", out)
	}
	res := &op.Collector{}
	c.end(out, q.Name+"/output", res)
	return &Compiled{Pipelines: c.pipe, Deps: c.deps, Result: res, Schema: q.Root.Schema(), serial: env.Serial}, nil
}

// add appends a pipeline with its dependency edges and returns its index.
// Every pipeline passes through the fusion pass here, so fused execution
// applies uniformly — scans, exchange receives and materialized
// intermediates alike. An exchange receive decodes into per-worker slots
// when nothing downstream retains its batches.
func (c *compiler) add(p *engine.Pipeline, deps []int) int {
	if src, ok := p.Source.(*exchange.Source); ok && scratchSafe(p.Ops, p.Sink) {
		src.ReuseBatches(c.env.Engine.Workers())
	}
	p.Ops = fuseOps(p.Ops, p.Sink, c.env.Engine.Workers())
	c.pipe = append(c.pipe, p)
	c.deps = append(c.deps, deps)
	return len(c.pipe) - 1
}

// fuseOps collapses every maximal run of Filter/MapOp/Project operators
// into one op.FusedStage (single-pass evaluation over a selection vector).
// Even single-operator runs are wrapped: the fused path routes its scratch
// through per-worker buffers instead of fresh storage.NewBatch allocations
// per morsel. A JoinProbe gets the same per-worker output batch when
// nothing after it retains its output.
func fuseOps(ops []engine.Op, sink engine.Sink, workers int) []engine.Op {
	out := make([]engine.Op, 0, len(ops))
	for i := 0; i < len(ops); {
		if !fusible(ops[i]) {
			if jp, ok := ops[i].(*op.JoinProbe); ok && scratchSafe(ops[i+1:], sink) {
				jp.ReuseOutput(workers)
			}
			out = append(out, ops[i])
			i++
			continue
		}
		j := i
		for j < len(ops) && fusible(ops[j]) {
			j++
		}
		out = append(out, op.NewFused(ops[i:j], workers, scratchSafe(ops[j:], sink)))
		i = j
	}
	return out
}

func fusible(o engine.Op) bool {
	switch o.(type) {
	case *op.Filter, *op.MapOp, *op.Project:
		return true
	}
	return false
}

// scratchSafe decides whether an operator (a fused stage, a join probe) or
// an exchange receive may reuse its output batch across morsels and hand
// its columns to the engine's pool at pipeline completion (rest are the
// unfused operators after it): sound only when no downstream
// operator or sink retains the batch beyond its synchronous call. It is
// the one place that decides. A JoinProbe downstream always copies its
// input into its own output; the whitelisted sinks consume without
// retaining — except a skew-adaptive probe send, which holds batches while
// it samples. Anything unknown (including retaining sinks like JoinBuild
// and Collector) forces fresh allocations.
func scratchSafe(rest []engine.Op, sink engine.Sink) bool {
	for _, o := range rest {
		switch o.(type) {
		case *op.JoinProbe:
			return true
		case *op.Filter, *op.MapOp, *op.Project:
			// Pass-through-ish: may forward the batch unchanged; keep
			// scanning toward the sink.
		default:
			return false
		}
	}
	switch s := sink.(type) {
	case *exchange.Send:
		return s.Mode() != exchange.ModeSkewProbe
	case *op.GroupBy, *op.TopK, *op.GroupJoinProbe:
		return true
	}
	return false
}

// withDep returns a fresh dependency list extending deps with d.
func withDep(deps []int, d int) []int {
	out := make([]int, 0, len(deps)+1)
	out = append(out, deps...)
	return append(out, d)
}

func (c *compiler) build(n *Node) (*stream, error) {
	switch n.Kind {
	case KScan:
		return c.buildScan(n)
	case KSelect:
		in, err := c.build(n.In)
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, &op.Filter{Pred: n.Pred})
		in.schema = n.schema
		return in, nil
	case KMap:
		in, err := c.build(n.In)
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, op.NewMap(in.schema, n.Exprs))
		in.schema = n.schema
		return in, nil
	case KProject:
		in, err := c.build(n.In)
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, op.NewProject(in.schema, n.Cols))
		in.part = remap(in.part, n.Cols)
		in.zones = pick(in.zones, n.Cols)
		in.schema = n.schema
		return in, nil
	case KJoin:
		return c.buildJoin(n)
	case KGroupJoin:
		return c.buildGroupJoin(n)
	case KGroupBy:
		return c.buildGroupBy(n)
	case KTopK:
		return c.buildTopK(n)
	default:
		return nil, fmt.Errorf("plan: unknown node kind %d", n.Kind)
	}
}

func (c *compiler) buildScan(n *Node) (*stream, error) {
	info, err := c.env.Lookup(n.Table)
	if err != nil {
		return nil, err
	}
	if !info.Table.Schema.Equal(n.schema) {
		return nil, fmt.Errorf("plan: scan %s schema mismatch: plan %v vs stored %v",
			n.Table, n.schema, info.Table.Schema)
	}
	out := &stream{
		source:     op.NewTableSource(info.Table, c.env.Topo.Sockets, c.env.MorselSize),
		schema:     n.schema,
		part:       info.PartCols,
		replicated: info.Replicated,
		zones:      info.Zones,
	}
	if c.env.AfterScan != nil {
		out.ops = append(out.ops, c.env.AfterScan(n.schema)...)
	}
	return out, nil
}

// exchangeStream cuts the stream with a send-side exchange and returns the
// receive-side stream.
func (c *compiler) exchangeStream(name string, in *stream, mode exchange.Mode, keys []int) *stream {
	return c.exchangeStreamVia(name, in, exchange.SendConfig{Mode: mode, Keys: keys})
}

// exchangeStreamVia is exchangeStream for a send that takes part in a
// cluster-wide coordinator: sc carries the mode, the keys and the
// coordinator (Skew, BuildFilter, ProbeFilter). A send that routes by the
// coordinator's result carries the edge to its round in in.deps.
func (c *compiler) exchangeStreamVia(name string, in *stream, sc exchange.SendConfig) *stream {
	env := c.env
	mode := sc.Mode
	if mode != exchange.ModeBroadcast {
		c.single(in)
	}
	if env.Classic && mode == exchange.ModePartition {
		mode = exchange.ModeClassicPartition
	}
	exID := env.NextExID()
	codec := ser.NewCodec(in.schema)
	senders := env.Servers
	if in.coordOnly {
		senders = 1
	}
	sc.Mux, sc.Pool, sc.QueryID, sc.ExID, sc.Mode = env.Mux, env.Pool, env.QueryID, exID, mode
	sc.Servers, sc.WorkersPerServer, sc.NumWorkers = env.Servers, env.WorkersPerServer, env.Engine.Workers()
	sc.Codec, sc.Topo, sc.Scale = codec, env.Topo, env.Scale
	send := exchange.NewSend(sc)
	c.add(&engine.Pipeline{
		Name:            name,
		Source:          in.source,
		Ops:             in.ops,
		Sink:            send,
		CoordinatorOnly: in.coordOnly,
	}, in.deps)
	// Receivers wait for one Last marker per sender: every server, or only
	// the coordinator when it alone runs the send pipeline.
	var recv *mux.ExchangeRecv
	classic := mode == exchange.ModeClassicPartition
	openHere := true
	if mode == exchange.ModeGather && env.ServerID != 0 {
		openHere = false
	}
	if openHere {
		if classic {
			recv = env.Mux.OpenExchangeClassic(env.QueryID, exID, senders, env.Engine.Workers())
		} else {
			recv = env.Mux.OpenExchange(env.QueryID, exID, senders)
		}
	}
	out := &stream{schema: in.schema}
	if recv != nil {
		out.source = &exchange.Source{
			Recv:    recv,
			Codec:   codec,
			Topo:    env.Topo,
			Scale:   env.Scale,
			Classic: classic,
		}
		if env.AfterExchange != nil {
			out.ops = append(out.ops, env.AfterExchange(in.schema)...)
		}
	} else {
		out.source = op.EmptySource{}
	}
	switch mode {
	case exchange.ModePartition, exchange.ModeClassicPartition:
		out.part = append([]int{}, sc.Keys...)
		out.by = sc.Ranges
	case exchange.ModeBroadcast:
		out.replicated = true
	case exchange.ModeGather:
		out.coordOnly = true
	}
	return out
}

// gather routes a stream to the coordinator.
func (c *compiler) gather(name string, in *stream) *stream {
	if c.single(in).coordOnly {
		return in
	}
	return c.exchangeStream(name, in, exchange.ModeGather, nil)
}

// single cuts a replicated stream down to the coordinator's copy. Every
// server holds all of it, so a pipeline breaker or an exchange other than
// a broadcast would otherwise see each row once per server. The rule
// reads only the plan: every server cuts the same streams.
func (c *compiler) single(s *stream) *stream {
	if s.replicated && c.env.Servers > 1 {
		s.replicated, s.coordOnly = false, true
	}
	return s
}

// phase is one materializing step of a lowering: a pipeline named name
// ends at sink, and rows reads back what sink holds, in schema, once it
// has finalized.
type phase struct {
	name   string
	sink   engine.Sink
	rows   func() []*storage.Batch
	schema *storage.Schema
}

// end ends the stream at sink in a pipeline named name, run where the
// stream lives, and returns the pipeline's index.
func (c *compiler) end(in *stream, name string, sink engine.Sink) int {
	c.single(in)
	return c.add(&engine.Pipeline{
		Name:            name,
		Source:          in.source,
		Ops:             in.ops,
		Sink:            sink,
		CoordinatorOnly: in.coordOnly,
	}, in.deps)
}

// breaker ends the stream at p's sink, a pipeline breaker, and returns
// the stream that lazily reads p's rows after the breaker's pipeline
// finalized. The result carries no partitioning; the caller sets what
// survives.
func (c *compiler) breaker(in *stream, p phase) *stream {
	i := c.end(in, p.name, p.sink)
	return &stream{
		source:    &op.LazySource{Fn: p.rows, Morsel: c.env.MorselSize},
		schema:    p.schema,
		coordOnly: in.coordOnly,
		deps:      []int{i},
	}
}

// twoPhase lowers a distributed breaker in two steps: a local breaker on
// every server bounds what moves (pre-aggregation, Figure 6(c); a local
// top-k), the move brings its rows together — a gather to the coordinator
// when keys is nil, else a shuffle on keys — and the final breaker
// combines them.
func (c *compiler) twoPhase(in *stream, local phase, move string, keys []int, final phase) *stream {
	mid := c.breaker(in, local)
	if keys == nil {
		mid = c.gather(move, mid)
	} else {
		mid = c.exchangeStream(move, mid, exchange.ModePartition, keys)
	}
	return c.breaker(mid, final)
}

func (c *compiler) buildJoin(n *Node) (*stream, error) {
	bs, err := c.build(n.Build)
	if err != nil {
		return nil, err
	}
	ps, err := c.build(n.Probe)
	if err != nil {
		return nil, err
	}
	strat := c.decideJoin(n, bs, ps)
	var by *exchange.RangeMap
	var shuffleBuild, shuffleProbe bool
	if strat == PartitionBoth {
		by = c.rangeMap(bs, ps, n.BuildKeys, n.ProbeKeys)
		shuffleBuild, shuffleProbe, _ = c.shuffles(n, bs, ps, n.BuildKeys, n.ProbeKeys, by)
	}

	// Local copies of the join metadata: column pruning rewrites them into
	// the pruned column space, and n is shared by every server's compile —
	// Node fields must never be mutated.
	buildKeys, probeKeys := n.BuildKeys, n.ProbeKeys
	buildOut, probeOut, residual := n.BuildOut, n.ProbeOut, n.Residual

	// Pushdown below exchanges: a side that is about to be serialized onto
	// the wire is narrowed to the columns the join actually consumes (its
	// keys, its output columns and the columns the residual reads), so
	// dropped columns never reach the codec.
	if !c.env.NoPushdown {
		skew := strat == SkewAdaptive
		if skew || strat == BroadcastBuild && !bs.replicated || shuffleBuild {
			residual = prune(bs, true, &buildKeys, &buildOut, residual)
		}
		if skew || shuffleProbe {
			residual = prune(ps, false, &probeKeys, &probeOut, residual)
		}
	}

	switch strat {
	case BroadcastBuild:
		if !bs.replicated {
			bs = c.exchangeStream(joinName(n, "broadcast"), bs, exchange.ModeBroadcast, nil)
		}
	case PartitionBoth:
		bs, ps = c.coPartition(n, bs, ps, buildKeys, probeKeys, by)
	case SkewAdaptive:
		// One coordinator per join per server; its control exchange id is
		// allocated first so every server produces the identical id
		// sequence (sketch, probe shuffle, build shuffle). Hot and cold
		// keys route differently, so the build send and the probe send's
		// flush depend on the round (the coordinator is its source and
		// sink); Options.Serial chains this compile order.
		coord := exchange.NewSkewCoord(exchange.SkewCoordConfig{ControlConfig: c.control(), Config: c.env.Skew})
		ps = c.exchangeStreamVia(joinName(n, "skew-shuffle-probe"), ps,
			exchange.SendConfig{Mode: exchange.ModeSkewProbe, Keys: probeKeys, Skew: coord})
		probe := len(c.pipe) - 1
		round := c.add(&engine.Pipeline{Name: joinName(n, "skew-round"), Source: coord, Sink: coord}, nil)
		bs.deps = withDep(bs.deps, round)
		bs = c.exchangeStreamVia(joinName(n, "skew-shuffle-build"), bs,
			exchange.SendConfig{Mode: exchange.ModeSkewBuild, Keys: buildKeys, Skew: coord})
		c.add(&engine.Pipeline{
			Name:   joinName(n, "skew-flush"),
			Source: op.EmptySource{},
			Sink:   exchange.SkewFlush{Send: c.pipe[probe].Sink.(*exchange.Send)},
		}, []int{probe, round})
	case LocalJoin:
		// Nothing to move.
	}
	if bs.coordOnly && !ps.coordOnly {
		// A coordinator-only build (e.g. a gathered scalar) joined with a
		// distributed probe must be broadcast back to all servers.
		bs = c.exchangeStream(joinName(n, "scalar-broadcast"), bs, exchange.ModeBroadcast, nil)
	}

	jb := op.NewJoinBuild(bs.schema, buildKeys)
	build := c.add(&engine.Pipeline{
		Name:            joinName(n, "build"),
		Source:          bs.source,
		Ops:             bs.ops,
		Sink:            jb,
		CoordinatorOnly: bs.coordOnly,
	}, bs.deps)
	probe := op.NewJoinProbe(jb, n.JoinType, ps.schema, probeKeys, probeOut, buildOut, residual)
	ps.ops = append(ps.ops, probe)
	// Build-before-probe: whichever pipeline ends up running the probe
	// operator must wait for the hash table to finalize.
	ps.deps = withDep(ps.deps, build)
	ps.schema = n.schema
	// Resulting partitioning: the probe keys survive if they are among the
	// emitted probe columns. Probe rows are never null-extended, so their
	// zones survive too.
	switch strat {
	case PartitionBoth:
		ps.part, ps.by = remap(probeKeys, probeOut), by
	case SkewAdaptive:
		// Hot probe tuples stayed on their origin server, so the output is
		// NOT partitioned on the join keys: a downstream group-by must
		// re-shuffle or it would aggregate the same hot key on several
		// servers (double counting).
		ps.part = nil
	default:
		ps.part = remap(ps.part, probeOut)
	}
	ps.zones = pick(ps.zones, probeOut)
	ps.replicated = ps.replicated && bs.replicated
	return ps, nil
}

// control allocates the next exchange id as a coordinator's control
// exchange.
func (c *compiler) control() exchange.ControlConfig {
	env := c.env
	return exchange.ControlConfig{
		Mux: env.Mux, Pool: env.Pool, QueryID: env.QueryID, ExID: env.NextExID(), Servers: env.Servers,
	}
}

// coPartition brings the inputs of a join or group-join (n) compiled
// PartitionBoth together under one partitioning function, by (rangeMap
// picks it; nil is CRC32), exchanging the sides shuffles picks. The probe
// shuffle may be reduced by a Bloom filter of the build keys, which the
// build send publishes when it finishes. Under CRC32 the filter is
// cluster-wide: the filter's round merges the n filters, and the probe
// send depends on the round and drops every row that misses the merged
// filter. The control exchange id comes first, then the build shuffle,
// then the round, then the probe shuffle: Options.Serial chains pipelines
// in compile order, so the build send finishes before the round waits for
// the filters. Under a range map the filter is local (no round): the
// probe send depends on the build send and tests the rows it keeps.
func (c *compiler) coPartition(n *Node, bs, ps *stream, buildKeys, probeKeys []int, by *exchange.RangeMap) (*stream, *stream) {
	buildName, probeName := "shuffle-build", "shuffle-probe"
	if n.Kind == KGroupJoin {
		buildName, probeName = "gj-shuffle-build", "gj-shuffle-probe"
	}
	shuffleBuild, shuffleProbe, filter := c.shuffles(n, bs, ps, buildKeys, probeKeys, by)
	build := exchange.SendConfig{Mode: exchange.ModePartition, Keys: buildKeys, Ranges: by}
	probe := exchange.SendConfig{Mode: exchange.ModePartition, Keys: probeKeys, Ranges: by}
	var f *exchange.SemiFilter
	switch {
	case filter && by == nil:
		f = exchange.NewSemiFilter(c.control())
	case filter:
		f = exchange.NewLocalSemiFilter()
	}
	build.BuildFilter, probe.ProbeFilter = f, f
	if shuffleBuild {
		bs = c.exchangeStreamVia(joinName(n, buildName), bs, build)
	} else {
		bs.part, bs.by = slices.Clone(buildKeys), by
	}
	switch {
	case f != nil && by == nil:
		// The round's pipeline: the filter is its source and its sink.
		ps.deps = withDep(ps.deps, c.add(&engine.Pipeline{Name: joinName(n, "semi-filter"), Source: f, Sink: f}, nil))
	case f != nil:
		// The build send, just added, sets the local filter.
		ps.deps = withDep(ps.deps, len(c.pipe)-1)
	}
	if shuffleProbe {
		ps = c.exchangeStreamVia(joinName(n, probeName), ps, probe)
	} else {
		ps.part, ps.by = slices.Clone(probeKeys), by
	}
	return bs, ps
}

// shuffles is coPartition's exchange rule: a side not already
// partitioned on its keys by by is shuffled on them, unless its zones on
// the key already fit the range map. filter reports whether the probe
// shuffle takes the semi-join filter.
//
// The filter rule reads only the plan, never local row counts, so every
// server opens the same exchanges and adds the same rounds: an inner
// join or a group-join (every group-join is inner on its probe side: a
// probe row without a build group contributes nothing), the build input
// reduced by a predicate (a build over a whole relation has a partner for
// nearly every probe row, so the filter would only cost), both inputs
// spread over every server (neither coordinator-only nor replicated), not
// the classic baseline, and the probe shuffled. Under CRC32 the build
// shuffles too. Under a range map the build must already lie where the
// map puts it, so each server holds every build key it owns; its send
// then runs only to set the local filter, and keeps every row on its
// server. When both sides move by range there is no filter: a merged one
// would cost a round of remote bytes to spare mostly loopback ones.
func (c *compiler) shuffles(n *Node, bs, ps *stream, buildKeys, probeKeys []int, by *exchange.RangeMap) (build, probe, filter bool) {
	build, probe = moves(bs, buildKeys, by), moves(ps, probeKeys, by)
	filter = probe && build == (by == nil) && (n.Kind == KGroupJoin || n.JoinType == op.Inner) && !c.env.Classic &&
		!bs.coordOnly && !ps.coordOnly && !bs.replicated && !ps.replicated && hasSelect(n.Build)
	return build || filter, probe, filter
}

// rangeMap is coPartition's route rule: the range map a single-integer-key
// join routes both inputs by, or nil for CRC32. It reads only the plan and
// the cluster-wide zone maps, so every server derives the same map. Both
// inputs must be spread over every server (neither coordinator-only nor
// replicated), neither already hash-partitioned on its key, and both must
// lie in key order across the servers: range-partitioned on the key
// already, or with per-server zones on it that ascend
// (z[s-1].Max ≤ z[s].Min). The classic baseline keeps CRC32 (Fig. 12(a),
// Table 2). The map is the probe's, else the build's, else read off the
// build's zones.
func (c *compiler) rangeMap(bs, ps *stream, buildKeys, probeKeys []int) *exchange.RangeMap {
	if c.env.Classic || len(buildKeys) != 1 || bs.coordOnly || ps.coordOnly || bs.replicated || ps.replicated ||
		!inKeyOrder(bs, buildKeys) || !inKeyOrder(ps, probeKeys) {
		return nil
	}
	switch {
	case aligned(ps.part, probeKeys):
		return ps.by
	case aligned(bs.part, buildKeys):
		return bs.by
	}
	return exchange.RangeMapOf(bs.zone(buildKeys[0]))
}

// inKeyOrder reports whether a stream lies in the order of its one key
// across the servers: range-partitioned on it, or its zones on it ascend.
// A stream hash-partitioned on the key does not.
func inKeyOrder(s *stream, keys []int) bool {
	if aligned(s.part, keys) {
		return s.by != nil
	}
	return ascending(s.zone(keys[0]))
}

// ascending reports whether per-server zones lie in key order: each ends
// where the next begins or before.
func ascending(z []exchange.Zone) bool {
	if z == nil {
		return false
	}
	for i := 1; i < len(z); i++ {
		if z[i-1].Max > z[i].Min {
			return false
		}
	}
	return true
}

// moves reports whether a stream must be exchanged to be partitioned on
// keys by by: it is not already, and (under a range map) its zones on the
// key do not fit the map either.
func moves(s *stream, keys []int, by *exchange.RangeMap) bool {
	if aligned(s.part, keys) && s.by.Equal(by) {
		return false
	}
	if by == nil {
		return true
	}
	z := s.zone(keys[0])
	if len(z) != len(by.Lo) {
		return true
	}
	for srv, zs := range z {
		if !by.Holds(srv, zs.Min, zs.Max) {
			return true
		}
	}
	return false
}

// zone returns the per-server zones of column col, nil if unknown.
func (s *stream) zone(col int) []exchange.Zone {
	if col < len(s.zones) {
		return s.zones[col]
	}
	return nil
}

// hasSelect reports whether a predicate reduces the subtree rooted at n.
func hasSelect(n *Node) bool {
	if n == nil {
		return false
	}
	return n.Kind == KSelect || hasSelect(n.In) || hasSelect(n.Build) || hasSelect(n.Probe)
}

// prune narrows a join side's stream to the columns the join consumes of
// it — keys, output columns, the residual's columns — and remaps those on
// the caller's copies (n is shared by every server's compile). It returns
// the residual over the pruned side.
func prune(s *stream, build bool, keys, out *[]int, res *op.Residual) *op.Residual {
	used := slices.Concat(*keys, *out)
	if res != nil {
		for _, rc := range res.Cols {
			if rc.Build == build {
				used = append(used, rc.Col)
			}
		}
	}
	slices.Sort(used)
	keep := slices.Compact(used)
	if len(keep) == s.schema.Len() {
		return res
	}
	s.ops = append(s.ops, op.NewProject(s.schema, keep))
	s.schema = s.schema.Project(keep)
	s.part = remap(s.part, keep)
	s.zones = pick(s.zones, keep)
	*keys, *out = remap(*keys, keep), remap(*out, keep)
	if res == nil {
		return nil
	}
	r := &op.Residual{Pred: res.Pred, Cols: slices.Clone(res.Cols)}
	for k, rc := range r.Cols {
		if rc.Build == build {
			r.Cols[k].Col = slices.Index(keep, rc.Col)
		}
	}
	return r
}

func (c *compiler) decideJoin(n *Node, bs, ps *stream) JoinStrategy {
	if c.env.Servers == 1 || (bs.coordOnly && ps.coordOnly) {
		return LocalJoin
	}
	if n.Strategy == LocalJoin {
		return LocalJoin
	}
	if bs.replicated && (n.Kind == KJoin || ps.replicated) {
		// The build side is already everywhere. A group-join's groups
		// would be split over the servers' probe rows unless the probe is
		// everywhere too.
		return LocalJoin
	}
	if n.Strategy == BroadcastBuild {
		return BroadcastBuild
	}
	if aligned(bs.part, n.BuildKeys) && aligned(ps.part, n.ProbeKeys) && bs.by.Equal(ps.by) {
		return LocalJoin
	}
	if n.Strategy == SkewAdaptive {
		if c.env.Classic || ps.coordOnly || ps.replicated {
			// The classic exchange-operator baseline has no adaptive
			// machinery; keep it an honest static comparison point. The
			// hot-key round needs a sketch from every server's probe.
			return PartitionBoth
		}
		return SkewAdaptive
	}
	return PartitionBoth
}

func (c *compiler) buildGroupJoin(n *Node) (*stream, error) {
	bs, err := c.build(n.Build)
	if err != nil {
		return nil, err
	}
	ps, err := c.build(n.Probe)
	if err != nil {
		return nil, err
	}
	if c.decideJoin(n, bs, ps) == PartitionBoth {
		bs, ps = c.coPartition(n, bs, ps, n.BuildKeys, n.ProbeKeys, c.rangeMap(bs, ps, n.BuildKeys, n.ProbeKeys))
	}
	gjb := op.NewGroupJoinBuild(n.Build.Schema(), n.BuildKeys, n.Aggs)
	build := c.add(&engine.Pipeline{
		Name:   joinName(n, "gj-build"),
		Source: bs.source,
		Ops:    bs.ops,
		Sink:   gjb,
	}, bs.deps)
	gjp := &op.GroupJoinProbe{Build: gjb, ProbeKeys: n.ProbeKeys}
	probe := c.add(&engine.Pipeline{
		Name:   joinName(n, "gj-probe"),
		Source: ps.source,
		Ops:    ps.ops,
		Sink:   gjp,
	}, withDep(ps.deps, build))
	// The output schema is the build schema plus aggregates, so the build
	// stream's partitioning survives positionally.
	return &stream{
		source:     &op.LazySource{Fn: gjb.ResultBatches, Morsel: c.env.MorselSize},
		schema:     n.schema,
		part:       bs.part,
		by:         bs.by,
		replicated: bs.replicated && ps.replicated,
		deps:       []int{probe},
	}, nil
}

func (c *compiler) buildGroupBy(n *Node) (*stream, error) {
	in, err := c.build(n.In)
	if err != nil {
		return nil, err
	}
	workers := c.env.Engine.Workers()
	keyed := len(n.Keys) > 0
	// Every group's rows already meet on one server (a replicated input
	// on the coordinator's copy, which breaker cuts it to), under either
	// partitioning function.
	local := c.env.Servers == 1 || in.coordOnly || in.replicated || keyed && aligned(in.part, n.Keys)
	if !local && keyed && c.env.DisablePreAgg {
		// Ablation: shuffle raw rows, aggregate once after the exchange.
		in = c.exchangeStream(gbName(n, "shuffle-raw"), in, exchange.ModePartition, n.Keys)
		local = true
	}
	if !local {
		// Aggregate partially where the rows are, then gather the partials
		// (scalar) or shuffle them on the group keys, and merge.
		partial := op.NewGroupBy(in.schema, n.Keys, n.Aggs, workers)
		ps := partial.PartialSchema()
		stage, move, keys := "preagg", "shuffle", identity(len(n.Keys))
		if !keyed {
			stage, move, keys = "partial", "gather", nil
		}
		merge := op.NewGroupBy(ps, keys, op.MergeSpecs(n.Aggs, len(n.Keys)), workers)
		out := c.twoPhase(in, phase{gbName(n, stage), partial, partial.PartialBatches, ps},
			gbName(n, move), keys, phase{gbName(n, "merge"), merge, merge.FinalBatches, n.schema})
		out.part = keys
		return out, nil
	}
	gb := op.NewGroupBy(in.schema, n.Keys, n.Aggs, workers)
	out := c.breaker(in, phase{gbName(n, "agg"), gb, gb.FinalBatches, n.schema})
	if keyed && aligned(in.part, n.Keys) {
		out.part, out.by = identity(len(n.Keys)), in.by
	}
	return out, nil
}

func (c *compiler) buildTopK(n *Node) (*stream, error) {
	in, err := c.build(n.In)
	if err != nil {
		return nil, err
	}
	topk := func(name string) phase {
		tk := op.NewTopK(in.schema, n.SortKeys, n.Limit)
		return phase{name, tk, tk.Batches, n.schema}
	}
	if c.env.Servers == 1 || in.coordOnly || in.replicated {
		return c.breaker(in, topk("topk")), nil
	}
	// Local top-k bounds what is shipped; the coordinator re-sorts.
	return c.twoPhase(in, topk("topk/local"), "topk/gather", nil, topk("topk/final")), nil
}

// aligned reports whether the stream partitioning matches the keys
// positionally.
func aligned(part, keys []int) bool {
	if part == nil || len(part) != len(keys) {
		return false
	}
	for i := range part {
		if part[i] != keys[i] {
			return false
		}
	}
	return true
}

// remap translates column indexes through a projection; nil if any column
// is dropped.
func remap(cols, proj []int) []int {
	if cols == nil {
		return nil
	}
	if proj == nil {
		return cols
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		found := -1
		for p, pc := range proj {
			if pc == c {
				found = p
				break
			}
		}
		if found < 0 {
			return nil
		}
		out[i] = found
	}
	return out
}

// pick carries per-column zones through a projection (nil = every column).
func pick(zones [][]exchange.Zone, cols []int) [][]exchange.Zone {
	if zones == nil || cols == nil {
		return zones
	}
	out := make([][]exchange.Zone, len(cols))
	for i, c := range cols {
		if c < len(zones) {
			out[i] = zones[c]
		}
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func joinName(n *Node, stage string) string {
	return fmt.Sprintf("join(%s)/%s", n.JoinType, stage)
}

func gbName(n *Node, stage string) string {
	return fmt.Sprintf("groupby(%d keys)/%s", len(n.Keys), stage)
}
