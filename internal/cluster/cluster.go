// Package cluster assembles N in-process server nodes into the distributed
// query engine of the paper: per server a NUMA topology, a registered
// message pool, a communication multiplexer with its network goroutine,
// an RDMA or TCP endpoint on the shared switch fabric, and a morsel-driven
// execution engine. It loads TPC-H style databases under chunked,
// partitioned or replicated placement (§4.1) and executes distributed
// query plans.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/exchange"
	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/nic"
	"hsqp/internal/numa"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/sim"
	"hsqp/internal/spin"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// TransportKind selects the wire protocol (the three engines of Figure 3).
type TransportKind int

const (
	// RDMA is the paper's communication multiplexer over InfiniBand verbs.
	RDMA TransportKind = iota
	// TCPoIB is TCP via IP-over-InfiniBand (connected mode, tuned §2.1.2).
	TCPoIB
	// TCPGbE is TCP over Gigabit Ethernet.
	TCPGbE
)

func (t TransportKind) String() string {
	switch t {
	case RDMA:
		return "rdma"
	case TCPoIB:
		return "tcp-ipoib"
	case TCPGbE:
		return "tcp-gbe"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(t))
	}
}

// ParseTransport parses the command-line name of a transport: rdma, tcp
// (TCP over IP-over-InfiniBand) or gbe (TCP over Gigabit Ethernet).
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "rdma":
		return RDMA, nil
	case "tcp":
		return TCPoIB, nil
	case "gbe":
		return TCPGbE, nil
	default:
		return 0, fmt.Errorf("unknown transport %q (rdma|tcp|gbe)", s)
	}
}

// RegistrationCost is the modeled cost of registering (pinning) a fresh
// memory region with the HCA (§2.2.2); amortized away by pool reuse.
const RegistrationCost = 40 * time.Microsecond

// Config describes a deployment: servers, their hardware, the network
// between them and its failure handling. What varies per query — exchange
// model, pre-aggregation, pushdown, … — is a plan.Options passed with
// WithPlan.
type Config struct {
	Servers          int
	Topology         *numa.Topology // per server; TwoSocket() if nil
	WorkersPerServer int            // engine workers; topology cores if 0
	Transport        TransportKind
	// Rate overrides the link data rate; zero selects QDR for RDMA/TCPoIB
	// and GbE for TCPGbE.
	Rate fabric.Rate
	// TimeScale converts simulated network seconds to wall seconds.
	// Zero = DefaultTimeScale.
	TimeScale float64
	// Scheduling enables round-robin network scheduling (§3.2.3).
	Scheduling bool
	// AllocPolicy is the message-buffer allocation policy (Figure 9).
	AllocPolicy numa.AllocPolicy
	MorselSize  int
	MessageSize int
	// ReplicaFactor is the default per-table replica factor recorded by
	// LoadTable (LoadTableReplicas overrides it per table). With r ≥ 2 each
	// partition of a chunked or hash-partitioned table exists on r servers,
	// so losing one server is recoverable and RunContext can transparently
	// restart queries on the survivors. Zero means 1 (no redundancy:
	// an unplanned server loss makes such tables unrecoverable).
	ReplicaFactor int
	// HeartbeatInterval is how often the cluster's failure detector samples
	// what the coordinator has heard from each server. Zero means 10ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence the detector tolerates: a server that
	// sent no frame of any kind for one timeout is probed, and one still
	// silent a second timeout later is declared lost. It must comfortably
	// exceed the worst head-of-line wait behind full-size messages on the
	// simulated link or a loaded cluster evicts healthy servers. Zero
	// means 1s.
	HeartbeatTimeout time.Duration
	// PhaseHook, when set, is invoked synchronously at query lifecycle
	// boundaries (after compile, at execution launch) on every attempt —
	// the injection point for sim.FaultInjector.
	PhaseHook func(phase sim.QueryPhase)
}

// DefaultTimeScale calibrates the simulated network against the in-process
// engine's compute speed so that the paper's compute:network balance is
// preserved. Experiments at SF ≈ 0.05–0.2 with this scale reproduce the
// paper's shapes.
const DefaultTimeScale = 12.0

// Node is one simulated server.
type Node struct {
	ID     int
	Topo   *numa.Topology
	Pool   *memory.Pool
	Mux    *mux.Mux
	Engine *engine.Engine

	transport *nic.Endpoint

	// alive turns false when the server is killed or evicted.
	alive    atomic.Bool
	killOnce sync.Once

	mu     sync.Mutex
	tables map[string]plan.TableInfo
}

// kill tears the node's runtime components down in leak-free order: the
// multiplexer first (its stop channel unblocks senders and receivers),
// then the engine (in-flight runs abort with ErrCancelled), then the
// transport. Idempotent: eviction after a KillServer re-runs it as a
// no-op.
func (n *Node) kill() {
	n.killOnce.Do(func() {
		n.alive.Store(false)
		n.Mux.Close()
		n.Engine.Close()
		n.transport.Close()
	})
}

// Cluster is the whole simulated deployment.
type Cluster struct {
	cfg Config

	// memMu is the membership lock: queries and Prepare hold it for read
	// over one attempt, membership changes (AddServer, RemoveServer, table
	// loads, failure eviction) hold it for write. A membership change
	// therefore waits for in-flight attempts to drain — an aborted attempt
	// releases quickly — and no attempt ever observes a half-rebuilt mesh.
	memMu sync.RWMutex
	Nodes []*Node
	// catalog retains every loaded table's source batch and placement spec.
	// It stands in for the replicated storage layer: with replica factor
	// r ≥ 2 each partition exists on r servers, and after a membership
	// change the new placement is recomputed deterministically from the
	// retained source — byte-identical to what replica recovery would
	// reassemble.
	catalog map[string]*tableSpec

	// fabPtr is the current mesh's fabric and nodesPtr mirrors Nodes, for
	// lock-free readers (KillServer and friends run inside a query attempt
	// that already holds the read lock, so they must not touch memMu
	// themselves).
	fabPtr   atomic.Pointer[fabric.Fabric]
	nodesPtr atomic.Pointer[[]*Node]
	// det is the current mesh's failure detector (nil for a single server,
	// which has no peer to lose). It lives exactly as long as its mesh.
	det atomic.Pointer[detector]

	nextQueryID atomic.Int32
	closed      atomic.Bool
	// epoch counts placement generations: every table (re)load and every
	// membership change bumps it *after* the new tables are installed, so
	// plan and result caches keyed on it can never pair a new epoch with
	// old placements.
	epoch atomic.Uint64
}

// tableSpec is one catalog entry: everything needed to re-partition the
// table over a changed membership.
type tableSpec struct {
	src       *storage.Batch
	placement storage.Placement
	partCol   int
	replicas  int
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", cfg.Servers)
	}
	if cfg.Topology == nil {
		cfg.Topology = numa.TwoSocket()
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = DefaultTimeScale
	}
	if cfg.Rate == 0 {
		if cfg.Transport == TCPGbE {
			cfg.Rate = fabric.GbE
		} else {
			cfg.Rate = fabric.IB4xQDR
		}
	}
	if cfg.MorselSize <= 0 {
		cfg.MorselSize = engine.DefaultMorselSize
	}

	c := &Cluster{cfg: cfg, catalog: map[string]*tableSpec{}}
	nodes := make([]*Node, 0, cfg.Servers)
	// The shells' worker pools are already running: a failed build must
	// stop them, nobody else holds a reference.
	closeShells := func() {
		for _, n := range nodes {
			n.Engine.Close()
		}
	}
	for range cfg.Servers {
		node, err := c.newNodeShell()
		if err != nil {
			closeShells()
			return nil, err
		}
		nodes = append(nodes, node)
	}
	if err := c.wireMesh(nodes); err != nil {
		closeShells()
		return nil, err
	}
	c.startMesh()
	mActiveServers.Set(float64(len(nodes)))
	return c, nil
}

// newNodeShell builds the durable half of a server — NUMA topology,
// registered message pool and worker-pool engine — which survives
// membership rebuilds. The network half (mux + endpoint) and the server id
// are attached by wireMesh.
func (c *Cluster) newNodeShell() (*Node, error) {
	topo := c.cfg.Topology
	scale := c.cfg.TimeScale
	pool := memory.NewPool(topo, c.cfg.AllocPolicy, c.cfg.MessageSize, func() {
		spin.Burn(time.Duration(float64(RegistrationCost) * scale))
	})
	eng, err := engine.New(engine.Config{
		Topology:   topo,
		Workers:    c.cfg.WorkersPerServer,
		MorselSize: c.cfg.MorselSize,
	})
	if err != nil {
		return nil, err
	}
	node := &Node{Topo: topo, Pool: pool, Engine: eng, tables: map[string]plan.TableInfo{}}
	node.alive.Store(true)
	return node, nil
}

// wireMesh builds a fresh fabric sized to the node list and attaches a new
// multiplexer and endpoint to every node (dense server ids 0..n-1 mapped
// one-to-one onto fabric ports). It installs the new mesh into the cluster
// but does not start it; call startMesh once tables are in place.
func (c *Cluster) wireMesh(nodes []*Node) error {
	n := len(nodes)
	fab, err := fabric.New(fabric.Config{
		Ports:     n,
		Rate:      c.cfg.Rate,
		TimeScale: c.cfg.TimeScale,
	})
	if err != nil {
		return err
	}
	for id, node := range nodes {
		node.ID = id
		m, err := mux.New(mux.Config{
			Server:     id,
			Servers:    n,
			Topology:   node.Topo,
			Pool:       node.Pool,
			Scheduling: c.cfg.Scheduling,
		})
		if err != nil {
			return err
		}
		var sheet nic.Sheet
		switch c.cfg.Transport {
		case RDMA:
			sheet = nic.RDMA()
		case TCPoIB:
			sheet = nic.TCP(nic.TCPConfig{Mode: nic.ModeConnected, TunedInterrupts: true})
		case TCPGbE:
			sheet = nic.TCP(nic.TCPConfig{Mode: nic.ModeEthernet, Offload: true})
		default:
			return fmt.Errorf("cluster: unknown transport %v", c.cfg.Transport)
		}
		tr := nic.New(fab, id, sheet, m.RecvAlloc, m.OnRecv, m.OnInline)
		m.SetTransport(tr)
		node.Mux = m
		node.transport = tr
	}
	c.Nodes = nodes
	c.cfg.Servers = n
	c.fabPtr.Store(fab)
	c.nodesPtr.Store(&nodes)
	return nil
}

// startMesh starts the current fabric and multiplexers, and the mesh's
// failure detector.
func (c *Cluster) startMesh() {
	c.fabPtr.Load().Start()
	for _, n := range c.Nodes {
		n.Mux.Start()
	}
	var d *detector
	if len(c.Nodes) > 1 {
		d = c.newDetector(c.Nodes)
		go d.run()
	}
	c.det.Store(d)
}

// Config returns the cluster configuration. Servers reflects the current
// membership.
func (c *Cluster) Config() Config {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.cfg
}

// Servers returns the current number of servers in the membership.
func (c *Cluster) Servers() int { return len(*c.nodesPtr.Load()) }

// Fabric exposes the underlying fabric (stats). Membership changes replace
// the fabric; the returned handle keeps reporting the mesh it belonged to.
func (c *Cluster) Fabric() *fabric.Fabric { return c.fabPtr.Load() }

// stopMesh is startMesh's mirror: it stops the detector (and waits for
// it), then every multiplexer and endpoint, then the fabric. The engines,
// the durable half of each node, keep running.
func (c *Cluster) stopMesh() {
	c.det.Swap(nil).stop()
	for _, n := range *c.nodesPtr.Load() {
		n.Mux.Close()
		n.transport.Close()
	}
	c.fabPtr.Load().Stop()
}

// Close shuts everything down. It must not race with membership changes
// (it deliberately takes no membership lock, so that hung queries are
// aborted by the teardown instead of deadlocking a lock acquisition).
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.stopMesh()
	for _, n := range *c.nodesPtr.Load() {
		n.Engine.Close()
	}
}

// Epoch identifies the current table-placement generation: it advances on
// every LoadTable, so prepared plans and cached results carry the epoch
// they were built against and can be discarded when the data changes.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// LoadTable distributes one relation over the cluster with the
// configuration's default replica factor.
func (c *Cluster) LoadTable(name string, b *storage.Batch, placement storage.Placement, partCol int) {
	c.LoadTableReplicas(name, b, placement, partCol, c.cfg.ReplicaFactor)
}

// LoadTableReplicas distributes one relation over the cluster and records
// its replica factor. The factor does not change the primary placement —
// chunked and hash-partitioned tables keep one primary partition per
// server — it records on how many servers each partition additionally
// exists, which decides whether an *unplanned* server loss is recoverable
// (see RemoveServer and RunContext). Replicated placement implies full
// redundancy regardless of the factor. The epoch is bumped only after the
// new placement is installed on every node, so an epoch value can never be
// observed ahead of the tables it describes.
func (c *Cluster) LoadTableReplicas(name string, b *storage.Batch, placement storage.Placement, partCol, replicas int) {
	if replicas < 1 {
		replicas = 1
	}
	spec := &tableSpec{src: b, placement: placement, partCol: partCol, replicas: replicas}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	c.catalog[name] = spec
	c.installLocked(name, spec, c.Nodes)
	mEpoch.Set(float64(c.epoch.Add(1)))
}

// installLocked computes the table's placement for the given node list and
// installs one fragment per node, with a chunked table's zone maps. Splits
// are pure functions of (source, server count), so reinstalling after a
// membership change reproduces byte-identical contents and recomputes the
// zone maps the range routes are read off. Caller holds memMu for write.
func (c *Cluster) installLocked(name string, spec *tableSpec, nodes []*Node) {
	n := len(nodes)
	var parts []*storage.Batch
	var info func(id int) plan.TableInfo
	switch spec.placement {
	case storage.PlacementChunked:
		parts = storage.SplitChunked(spec.src, n)
		zones := zoneMaps(parts)
		info = func(int) plan.TableInfo { return plan.TableInfo{Zones: zones} }
	case storage.PlacementPartitioned:
		parts = storage.SplitPartitioned(spec.src, spec.partCol, n)
		info = func(int) plan.TableInfo { return plan.TableInfo{PartCols: []int{spec.partCol}} }
	case storage.PlacementReplicated:
		parts = storage.Replicate(spec.src, n)
		info = func(int) plan.TableInfo { return plan.TableInfo{Replicated: true} }
	default:
		panic(fmt.Sprintf("cluster: unknown placement %v", spec.placement))
	}
	for id, node := range nodes {
		t := storage.NewTable(name, spec.src.Schema)
		t.DistributeToSockets(parts[id], node.Topo)
		ti := info(id)
		ti.Table = t
		node.mu.Lock()
		node.tables[name] = ti
		node.mu.Unlock()
	}
}

// zoneMaps records each server's [min, max] of every non-nullable int64 or
// date column of a table split into parts (zones[col][server], nil for
// other columns): one slice for the whole cluster, which every server
// compiles against. A table with an empty part gets none.
func zoneMaps(parts []*storage.Batch) [][]exchange.Zone {
	for _, p := range parts {
		if p.Rows() == 0 {
			return nil
		}
	}
	schema := parts[0].Schema
	zones := make([][]exchange.Zone, schema.Len())
	for col, f := range schema.Fields {
		if f.Nullable || f.Type != storage.TInt64 && f.Type != storage.TDate {
			continue
		}
		zones[col] = make([]exchange.Zone, len(parts))
		for srv, p := range parts {
			v := p.Cols[col].I64
			z := exchange.Zone{Min: v[0], Max: v[0]}
			for _, x := range v[1:] {
				z.Min, z.Max = min(z.Min, x), max(z.Max, x)
			}
			zones[col][srv] = z
		}
	}
	return zones
}

// LoadTPCH loads a generated TPC-H database. Under partitioned placement,
// nation and region are replicated and all other relations are
// hash-partitioned by the first primary-key column (§4.3.1); under chunked
// placement relations are split into contiguous chunks as generated, with
// nation and region still replicated (they are fixed-size catalogs).
func (c *Cluster) LoadTPCH(db *tpch.Database, partitioned bool) {
	for name, b := range db.Tables {
		switch {
		case name == "nation" || name == "region":
			c.LoadTable(name, b, storage.PlacementReplicated, 0)
		case partitioned:
			c.LoadTable(name, b, storage.PlacementPartitioned, tpch.PrimaryKeyColumn(name))
		default:
			c.LoadTable(name, b, storage.PlacementChunked, 0)
		}
	}
}

// QueryStats reports the network and scheduling activity of one query run.
// The network counters (BytesSent, MessagesSent, …) are cluster-wide
// deltas over the query's wall interval: when other queries execute
// concurrently their traffic is included, so treat them as exact only for
// queries run alone. WireBytes is per-query exact (summed from the
// query's own exchange sends) and should be preferred for byte-savings
// claims.
type QueryStats struct {
	// Duration is the query's end-to-end latency inside the cluster:
	// Compile + Exec. It excludes any admission queueing (QueueWait).
	Duration time.Duration
	// QueueWait is how long the query waited for an execution slot before
	// compilation started. Zero for direct Cluster.RunContext calls;
	// populated by Session (and the serving tier's weighted-fair admission).
	QueueWait time.Duration
	// Compile is the plan-compilation time summed over the per-server
	// compile loop; every run pays it (exchange state is per query id).
	Compile time.Duration
	// Exec is the wall time of the distributed pipeline-DAG execution.
	// Compile, Exec and Duration cover the successful attempt; aborted
	// attempts' time shows up only in the failover-latency histogram.
	Exec time.Duration
	// Restarts counts how many times the query was transparently restarted
	// after a server loss (0 for an untroubled run).
	Restarts     int
	BytesSent    uint64 // wire bytes between servers
	MessagesSent uint64
	StolenMsgs   uint64
	LocalMsgs    uint64
	// PipelineStats[server] lists per-pipeline wall/busy times as measured
	// by that server's DAG scheduler.
	PipelineStats [][]engine.PipelineStat
	// ServerOverlap[server] is the fraction of the server's active span
	// during which at least two pipelines executed concurrently
	// (compute/communication overlap; 0 under strictly serial execution).
	ServerOverlap []float64
	// Trace is the query's merged distributed trace (queue/compile/
	// per-pipeline/exchange spans across servers), built after execution
	// from the pipeline stats. Nil when observability is disabled
	// (obs.SetEnabled(false)). Render with Trace.WriteChromeJSON.
	Trace *obs.Trace
}

// WireBytes sums the exact wire bytes of this query's own exchange sends
// across all servers (headers + payload + Last markers, broadcast buffers
// counted once per destination). Unlike BytesSent it is sourced from the
// per-pipeline sink stats, so it stays exact when other queries share the
// cluster.
func (s *QueryStats) WireBytes() uint64 {
	var total uint64
	for _, server := range s.PipelineStats {
		for _, p := range server {
			total += p.SinkBytes
		}
	}
	return total
}

// MaxOverlap returns the highest per-server overlap ratio of the run.
func (s *QueryStats) MaxOverlap() float64 {
	max := 0.0
	for _, o := range s.ServerOverlap {
		if o > max {
			max = o
		}
	}
	return max
}

// ConcurrentPipelines reports the peak number of pipelines that were in
// flight simultaneously on server id.
func (s *QueryStats) ConcurrentPipelines(id int) int {
	if id < 0 || id >= len(s.PipelineStats) {
		return 0
	}
	return engine.PeakConcurrency(s.PipelineStats[id])
}

// PeakConcurrentPipelines is the highest ConcurrentPipelines value across
// all servers of the run.
func (s *QueryStats) PeakConcurrentPipelines() int {
	peak := 0
	for id := range s.PipelineStats {
		if c := s.ConcurrentPipelines(id); c > peak {
			peak = c
		}
	}
	return peak
}

// compileAll lowers the query on every listed server with the shared query
// id, the identical exchange-id sequence and the query's plan options. On
// error the exchange state already opened by earlier servers is released.
func (c *Cluster) compileAll(nodes []*Node, q *plan.Query, qid int32, po plan.Options) ([]*plan.Compiled, error) {
	compiled := make([]*plan.Compiled, len(nodes))
	for id, node := range nodes {
		var next int32
		env := &plan.Env{
			Options:          po,
			QueryID:          qid,
			ServerID:         id,
			Servers:          len(nodes),
			WorkersPerServer: node.Engine.Workers(),
			Engine:           node.Engine,
			Mux:              node.Mux,
			Pool:             node.Pool,
			Topo:             node.Topo,
			Scale:            c.cfg.TimeScale,
			MorselSize:       c.cfg.MorselSize,
			Lookup:           node.lookup,
			NextExID: func() int32 {
				next++
				return next - 1
			},
		}
		cp, err := plan.Compile(q, env)
		if err != nil {
			for _, n := range nodes {
				n.Mux.CloseQuery(qid)
			}
			return nil, err
		}
		compiled[id] = cp
	}
	return compiled, nil
}

// SchedulerDelay reports the worst per-server delay between run start and
// the first morsel dispatched for this query — the engine-level queueing a
// query experiences when many runs share the worker pools (an SLO
// component distinct from admission QueueWait).
func (s *QueryStats) SchedulerDelay() time.Duration {
	var worst time.Duration
	for _, st := range s.PipelineStats {
		if d := engine.FirstDispatch(st); d > worst {
			worst = d
		}
	}
	return worst
}

func (n *Node) lookup(name string) (plan.TableInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ti, ok := n.tables[name]
	if !ok {
		return plan.TableInfo{}, fmt.Errorf("cluster: server %d has no table %q", n.ID, name)
	}
	return ti, nil
}
