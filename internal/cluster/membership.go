package cluster

import (
	"fmt"
	"sort"

	"hsqp/internal/storage"
)

// This file implements elastic membership: servers join and leave a live
// cluster, placements are recomputed online, and unplanned losses are
// recovered from replicas.
//
// Membership invariants (docs/invariants.md "Membership"):
//
//   - The epoch is bumped exactly once per membership change, strictly
//     after the re-partitioned tables are installed on every surviving
//     node (install-then-bump), so no cache can pair a new epoch with old
//     placements or vice versa.
//   - No exchange send ever targets a removed server: a membership change
//     holds the write side of memMu, which waits out every in-flight query
//     attempt (each holds the read side), and the rebuild gives every
//     survivor a fresh multiplexer whose mesh only knows the new dense ids
//     0..n-1. Stragglers addressed to the old mesh died with it.

// AddServer grows the cluster by one server: a new node joins the mesh,
// every cataloged table is re-partitioned over the enlarged membership
// (replicated tables are copied to the joiner), and the epoch advances.
// It returns the new server's id. In-flight queries drain first; queries
// started after the change compile against the new membership.
func (c *Cluster) AddServer() (int, error) {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if c.closed.Load() {
		return 0, fmt.Errorf("cluster: AddServer on a closed cluster")
	}
	id := len(c.Nodes)
	//lint:allow lockblock memMu is the membership lock, not a mux/exchange lock: the write side holds it precisely to drain queries and block while the mesh is torn down and rebuilt; nothing reached from here waits on memMu itself
	node, err := c.newNodeShell(id)
	if err != nil {
		return 0, err
	}
	next := make([]*Node, 0, id+1)
	next = append(next, c.Nodes...)
	next = append(next, node)
	//lint:allow lockblock memMu is the membership lock: blocking here while old muxes close is the design (in-flight queries drained first via the write acquire), and rebuildLocked never waits on memMu itself
	if err := c.rebuildLocked(next, nil); err != nil {
		return 0, err
	}
	return id, nil
}

// RemoveServer gracefully removes server id: its data is re-partitioned
// onto the survivors before it leaves (the catalog's retained source
// stands in for the shipped partitions), its exchange state has already
// been drained — the membership write lock waits out in-flight queries,
// whose deferred Mux.CloseQuery released every (QueryID, ExchangeID)
// route — and the epoch advances. A graceful removal never loses data,
// so it is legal at any replica factor; contrast KillServer.
func (c *Cluster) RemoveServer(id int) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("cluster: RemoveServer on a closed cluster")
	}
	if id < 0 || id >= len(c.Nodes) {
		return fmt.Errorf("cluster: RemoveServer: no server %d (membership has %d)", id, len(c.Nodes))
	}
	if len(c.Nodes) == 1 {
		return fmt.Errorf("cluster: cannot remove the last server")
	}
	leaving := c.Nodes[id]
	next := make([]*Node, 0, len(c.Nodes)-1)
	next = append(next, c.Nodes[:id]...)
	next = append(next, c.Nodes[id+1:]...)
	//lint:allow lockblock memMu is the membership lock: the write acquire drained every query, so closing the departing server's mux here cannot deadlock against memMu
	return c.rebuildLocked(next, leaving)
}

// evictFailed removes a server that was lost unplanned (killed, hung or
// partitioned). Unlike RemoveServer it refuses when any non-replicated
// table has no redundancy: with replica factor 1 the lost server's
// partitions existed nowhere else, so a transparent restart would return
// wrong (partial) answers. Eviction by node pointer is idempotent across
// concurrent queries — whoever gets the write lock first evicts, the
// rest find the node gone and succeed.
func (c *Cluster) evictFailed(node *Node) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	idx := -1
	for i, n := range c.Nodes {
		if n == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil // already evicted by a concurrent query's failover
	}
	if len(c.Nodes) == 1 {
		return fmt.Errorf("cluster: lost the last server")
	}
	for _, name := range c.catalogNames() {
		spec := c.catalog[name]
		if spec.placement != storage.PlacementReplicated && spec.replicas < 2 {
			return fmt.Errorf("cluster: table %q has replica factor %d: its partitions on the lost server are unrecoverable",
				name, spec.replicas)
		}
	}
	next := make([]*Node, 0, len(c.Nodes)-1)
	next = append(next, c.Nodes[:idx]...)
	next = append(next, c.Nodes[idx+1:]...)
	//lint:allow lockblock memMu is the membership lock: the failed attempt released its read side before calling evictFailed, and the detector already fenced the dead node, so the rebuild's mux closes complete without waiting on memMu
	return c.rebuildLocked(next, node)
}

// rebuildLocked replaces the mesh: it stops the old detector, the old
// fabric and every old multiplexer/endpoint, wires a fresh fully-connected
// mesh over the new node list (dense ids 0..n-1), re-partitions every
// cataloged table from its retained source, and only then bumps the epoch.
// A departing node's engine is shut down too. Caller holds memMu for write; with the write
// lock held no query attempt is in flight, so the teardown closes quiet
// components.
func (c *Cluster) rebuildLocked(next []*Node, departing *Node) error {
	c.det.Swap(nil).stop()
	for _, n := range c.Nodes {
		n.Mux.Close()
		n.transport.Close()
	}
	c.fab.Stop()
	if departing != nil {
		departing.kill()
	}
	if err := c.wireMesh(next); err != nil {
		return err
	}
	for _, name := range c.catalogNames() {
		c.installLocked(name, c.catalog[name], next)
	}
	c.startMesh()
	// Install-then-bump: the epoch advances only after the new placements
	// are visible on every node (membership invariant).
	mEpoch.Set(float64(c.epoch.Add(1)))
	mMembershipChanges.Inc()
	mActiveServers.Set(float64(len(next)))
	return nil
}

// catalogNames returns the cataloged table names in sorted order so
// rebuilds touch tables in a deterministic sequence.
func (c *Cluster) catalogNames() []string {
	names := make([]string, 0, len(c.catalog))
	for name := range c.catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- fault surface (sim.Target) ---
//
// KillServer, HangServer and PartitionServer deliberately take no
// membership lock: they are invoked from fault injectors while a query
// attempt holds the read side of memMu (taking it again would deadlock
// behind a waiting writer), so they operate only on node-local state via
// the lock-free mirrors. Recovery — detection, eviction, restart — is the
// job of RunContext.

// KillServer crashes server id immediately: its multiplexer, engine and
// endpoint shut down mid-flight, aborting its share of any running query.
// The server stays in the membership (marked dead) until a query's
// failover or an explicit RemoveServer evicts it. Idempotent.
func (c *Cluster) KillServer(id int) error {
	node, err := c.nodeByID(id)
	if err != nil {
		return err
	}
	node.kill()
	return nil
}

// HangServer freezes server id like SIGSTOP: it stops sending, never
// answers liveness probes, but its simulated NIC keeps consuming inbound
// traffic (the kernel ACKs for a stopped process). Detected by the
// cluster's failure detector — which listens and probes from server 0, the
// coordinator, so hanging server 0 stalls queries until their contexts
// cancel them (a frozen process cannot detect its own freeze; in a full
// system the client or a peer detector would time out instead).
func (c *Cluster) HangServer(id int) error {
	node, err := c.nodeByID(id)
	if err != nil {
		return err
	}
	node.Mux.Freeze(true)
	return nil
}

// PartitionServer cuts server id off at the switch: all fabric traffic to
// and from it — data and inline probes alike — is dropped while the
// process keeps running. Detected by the cluster's failure detector.
func (c *Cluster) PartitionServer(id int) error {
	node, err := c.nodeByID(id)
	if err != nil {
		return err
	}
	c.fabPtr.Load().SetPartitioned(node.ID, true)
	return nil
}

func (c *Cluster) nodeByID(id int) (*Node, error) {
	nodes := *c.nodesPtr.Load()
	if id < 0 || id >= len(nodes) {
		return nil, fmt.Errorf("cluster: no server %d (membership has %d)", id, len(nodes))
	}
	return nodes[id], nil
}
