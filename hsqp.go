// Package hsqp is a from-scratch Go reproduction of "High-Speed Query
// Processing over High-Speed Networks" (Rödiger, Mühlbauer, Kemper,
// Neumann; PVLDB 9(4), 2015): a distributed, NUMA-aware, morsel-driven
// analytical query engine built on an RDMA-style communication multiplexer
// with application-level round-robin network scheduling — running on a
// simulated InfiniBand/Ethernet fabric so the paper's cluster experiments
// reproduce on a single machine.
//
// # Execution model
//
// Queries compile, per server, into a *pipeline DAG*: dependency edges
// (hash-build before probe, materialized aggregate/sort before its
// consumer, coordinator merges last) are emitted by the plan compiler
// rather than implied by pipeline order. Each server owns a persistent,
// NUMA-pinned worker pool; a scheduler tracks pipeline readiness by
// in-degree counting and dispatches morsels from all runnable pipelines
// to idle workers — NUMA-local morsels first, then stealing across
// sockets and across pipelines when a socket runs dry. Exchange-receive
// pipelines poll the communication multiplexer without blocking a worker,
// so they start the moment the first message lands and overlap with
// upstream compute: the hybrid parallelism of §3 that keeps every core
// and every link busy simultaneously. QueryStats reports the per-pipeline
// wall/busy intervals and the resulting compute/communication overlap
// ratio per server.
//
// This package is the public facade. A minimal session looks like:
//
//	c, _ := hsqp.NewCluster(hsqp.ClusterConfig{Servers: 6, Transport: hsqp.RDMA, Scheduling: true})
//	defer c.Close()
//	c.LoadTPCH(hsqp.GenerateTPCH(0.1, 42), false)
//	result, stats, _ := c.RunContext(ctx, hsqp.TPCHQuery(5, 0.1))
//	fmt.Println(stats.Duration, stats.MaxOverlap())
//
// The paper's tables and figures regenerate through `hsqp experiment`
// (cmd/hsqp; the list is internal/bench.Experiments). The regression
// yardstick is the benchmark/ module.
package hsqp

import (
	"io"
	"net/http"

	"hsqp/internal/cluster"
	"hsqp/internal/engine"
	"hsqp/internal/fabric"
	"hsqp/internal/numa"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/serve"
	"hsqp/internal/sim"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// ClusterConfig describes a simulated deployment — servers, topology,
// transport, failure handling (see cluster.Config). What varies per query
// is a PlanOptions passed with WithPlan.
type ClusterConfig = cluster.Config

// Cluster is a running simulated deployment.
type Cluster = cluster.Cluster

// QueryStats reports per-query network activity plus per-pipeline
// scheduling intervals and the compute/communication overlap ratio.
type QueryStats = cluster.QueryStats

// PipelineStat is one pipeline's wall/busy interval inside a query run.
type PipelineStat = engine.PipelineStat

// Transport kinds (Figure 3's three engines).
const (
	RDMA   = cluster.RDMA
	TCPoIB = cluster.TCPoIB
	TCPGbE = cluster.TCPGbE
)

// Data rates (Table 1).
const (
	GbE     = fabric.GbE
	IB4xSDR = fabric.IB4xSDR
	IB4xDDR = fabric.IB4xDDR
	IB4xQDR = fabric.IB4xQDR
)

// Placement policies for LoadTable.
const (
	PlacementChunked     = storage.PlacementChunked
	PlacementPartitioned = storage.PlacementPartitioned
	PlacementReplicated  = storage.PlacementReplicated
)

// NUMA buffer allocation policies (Figure 9).
const (
	AllocLocal        = numa.AllocLocal
	AllocInterleaved  = numa.AllocInterleaved
	AllocSingleSocket = numa.AllocSingleSocket
)

// Session is the admission-controlled multi-query entry point: at most
// MaxConcurrent queries execute at once over a cluster's shared worker
// pools and fabric, at most MaxQueued more per tenant wait in line, and
// anything beyond fails fast with ErrOverloaded. One queue hands out the
// slots: weighted-fair across the tenants queries are labelled with
// (WithTenant), in arrival order within a tenant — so without labels it is
// a bounded FIFO (see cluster.Session).
type Session = cluster.Session

// SessionConfig tunes a Session's admission control: MaxConcurrent slots,
// MaxQueued waiting queries per tenant, and the Tenants weight map. The
// serving tier's ServeConfig{Slots, MaxQueuedPerTenant, Tenants} are the
// same three numbers, handed straight through.
type SessionConfig = cluster.SessionConfig

// ErrOverloaded is returned by Session.RunContext when the tenant's
// admission queue is full.
var ErrOverloaded = cluster.ErrOverloaded

// ErrSessionClosed is returned by Session.RunContext after Close, and by
// queries still queued when Close drains the session.
var ErrSessionClosed = cluster.ErrSessionClosed

// Prepared is a query validated on every server (under the run options
// given to Prepare, which it remembers) together with its result schema.
// It holds no compiled state: each execution compiles its pipelines like
// any other run, so the handle buys early error discovery and the schema,
// not speed (cluster.Prepare).
type Prepared = cluster.Prepared

// --- unified run API, elasticity and fault tolerance ---

// RunOption customizes one RunContext call (tenant label, restart bound,
// plan options).
type RunOption = cluster.RunOption

// PlanOptions are a query's compile-time switches — classic vs hybrid
// exchange, serial vs DAG pipelines, pre-aggregation, column pushdown, skew
// tuning, competitor-style extra operators. The zero value is the paper's
// engine.
type PlanOptions = plan.Options

// WithPlan compiles one query under the given plan options. Options belong
// to the query, not the cluster: every side of an A/B runs on the same
// loaded cluster,
//
//	c.RunContext(ctx, q)                                             // hybrid
//	c.RunContext(ctx, q, hsqp.WithPlan(hsqp.PlanOptions{Classic: true}))
func WithPlan(o PlanOptions) RunOption { return cluster.WithPlan(o) }

// WithTenant labels the query with a tenant: the Session queue it waits in,
// weighted by SessionConfig.Tenants (1 when absent). Unlabelled queries
// share the tenant "".
func WithTenant(tenant string) RunOption { return cluster.WithTenant(tenant) }

// WithMaxRestarts bounds transparent restarts after server losses for one
// query (default cluster.DefaultMaxRestarts).
func WithMaxRestarts(n int) RunOption { return cluster.WithMaxRestarts(n) }

// ErrServerLost marks a query failure caused by losing a server; when the
// loss is recoverable RunContext retries transparently and the error is
// only surfaced once restarts are exhausted.
var ErrServerLost = cluster.ErrServerLost

// FaultKind selects what happens to the targeted server.
type FaultKind = sim.FaultKind

// QueryPhase is the execution phase at which ClusterConfig.PhaseHook
// fires (and at which an armed fault triggers).
type QueryPhase = sim.QueryPhase

// Fault kinds for the chaos harness (sim.FaultInjector against a Cluster).
const (
	FaultKill      = sim.FaultKill
	FaultHang      = sim.FaultHang
	FaultPartition = sim.FaultPartition
)

// Query phases at which an armed fault fires.
const (
	PhaseCompiled  = sim.PhaseCompiled
	PhaseExecuting = sim.PhaseExecuting
)

// FaultPlan describes one fault: which server, what happens, at which
// query phase.
type FaultPlan = sim.FaultPlan

// FaultInjector arms a single fault against a cluster and fires it the
// first time the planned phase is reached; wire its OnPhase method into
// ClusterConfig.PhaseHook.
type FaultInjector = sim.FaultInjector

// NewFaultInjector arms plan against target (typically a *Cluster).
func NewFaultInjector(target sim.Target, plan FaultPlan) *FaultInjector {
	return sim.NewFaultInjector(target, plan)
}

// --- serving tier (cmd/hsqpd): network protocol, result cache, tenant stats ---

// ServeConfig configures the network serving tier over a cluster: wire
// protocol endpoint, single-flight result cache and the Session whose
// queue does the per-tenant weighted-fair admission (see serve.Config).
type ServeConfig = serve.Config

// Server is the serving tier's front door (serve.Server).
type Server = serve.Server

// Client is one tenant connection to a Server (serve.Client).
type Client = serve.Client

// ExecStats reports one served request: rows, cache path (result hit /
// shared), and the queue/compile/execute latency split.
type ExecStats = serve.ExecStats

// ExecOpts tunes one served request (e.g. BypassResultCache).
type ExecOpts = serve.ExecOpts

// TenantStats is one tenant's serving-path SLO snapshot: served count and
// queue/total p50/p99 as the server timed them, weight and queue depth as
// the Session reports them.
type TenantStats = serve.TenantStats

// NewServer creates a serving tier over a cluster; drive it with
// Server.Serve on a net.Listener and stop it with Server.Shutdown.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// DialServer connects to a serving tier as the given tenant.
func DialServer(addr, tenant string) (*Client, error) { return serve.Dial(addr, tenant) }

// --- observability: metrics registry, exposition, per-query tracing ---

// QueryTrace is a per-query distributed trace: queue/compile spans on the
// coordinator track plus every server's pipeline and exchange spans.
// QueryStats.Trace carries one per run; render it with its
// WriteChromeJSON (chrome://tracing / Perfetto format).
type QueryTrace = obs.Trace

// TraceSpan is one interval in a QueryTrace.
type TraceSpan = obs.Span

// SlowQuery is one slow-request record as logged by the serving tier.
type SlowQuery = obs.SlowQuery

// MetricsHandler serves the process-wide metrics registry — counters,
// gauges and histograms from every layer (serve, cluster, engine,
// exchange, mux) — in Prometheus text exposition format. Mount it on any
// http.ServeMux; `hsqpd -metrics-addr` does exactly this.
func MetricsHandler() http.Handler { return obs.Handler(obs.Default()) }

// WriteMetrics writes the process-wide registry in Prometheus text format.
func WriteMetrics(w io.Writer) error { return obs.Default().WriteText(w) }

// SetObservability toggles all instrumentation (metric updates and trace
// collection) at runtime. It defaults to on; `hsqpd -noobs` and the
// overhead ablation benchmark turn it off.
func SetObservability(on bool) { obs.SetEnabled(on) }

// Query is a compiled logical plan.
type Query = plan.Query

// Batch is a columnar result set.
type Batch = storage.Batch

// TPCHDatabase is a generated TPC-H database.
type TPCHDatabase = tpch.Database

// NewCluster builds and starts a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// GenerateTPCH builds the TPC-H database at the given scale factor,
// deterministically from seed.
func GenerateTPCH(sf float64, seed uint64) *TPCHDatabase { return tpch.Generate(sf, seed) }

// TPCHQuery returns TPC-H query q (1–22) as an executable plan. sf feeds
// the scale-dependent parameters (Q11).
func TPCHQuery(q int, sf float64) *Query {
	return queries.MustBuild(q, queries.Params{SF: sf})
}

// ExplainQuery renders a query plan tree (Figure 6 style).
func ExplainQuery(q *Query) string { return plan.Explain(q) }

// TwoSocketTopology is the paper's evaluation server (2×10 cores).
func TwoSocketTopology() *numa.Topology { return numa.TwoSocket() }

// FourSocketTopology is the Figure 9 server (4×15 cores).
func FourSocketTopology() *numa.Topology { return numa.FourSocket() }
