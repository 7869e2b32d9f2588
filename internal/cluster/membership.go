package cluster

import (
	"fmt"
	"slices"
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
	// The shell is built before the lock is taken and closed if the change
	// fails: nobody else holds a reference to it.
	node, err := c.newNodeShell()
	if err != nil {
		return 0, err
	}
	id := 0
	err = c.changeMembership("AddServer", func(nodes []*Node) ([]*Node, error) {
		id = len(nodes)
		return append(slices.Clip(nodes), node), nil
	})
	if err != nil {
		node.Engine.Close()
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
	return c.changeMembership("RemoveServer", func(nodes []*Node) ([]*Node, error) {
		if id < 0 || id >= len(nodes) {
			return nil, fmt.Errorf("cluster: RemoveServer: no server %d (membership has %d)", id, len(nodes))
		}
		if len(nodes) == 1 {
			return nil, fmt.Errorf("cluster: cannot remove the last server")
		}
		return slices.Delete(slices.Clone(nodes), id, id+1), nil
	})
}

// evictFailed removes a server that was lost unplanned (killed, hung or
// partitioned). Unlike RemoveServer it refuses when any non-replicated
// table has no redundancy: with replica factor 1 the lost server's
// partitions existed nowhere else, so a transparent restart would return
// wrong (partial) answers. Eviction by node pointer is idempotent across
// concurrent queries — whoever gets the write lock first evicts, the
// rest find the node gone and succeed.
func (c *Cluster) evictFailed(node *Node) error {
	return c.changeMembership("evict", func(nodes []*Node) ([]*Node, error) {
		idx := slices.Index(nodes, node)
		if idx < 0 {
			return nil, nil // already evicted by a concurrent query's failover
		}
		if len(nodes) == 1 {
			return nil, fmt.Errorf("cluster: lost the last server")
		}
		for _, name := range c.catalogNames() {
			spec := c.catalog[name]
			if spec.placement != storage.PlacementReplicated && spec.replicas < 2 {
				return nil, fmt.Errorf("cluster: table %q has replica factor %d: its partitions on the lost server are unrecoverable",
					name, spec.replicas)
			}
		}
		return slices.Delete(slices.Clone(nodes), idx, idx+1), nil
	})
}

// changeMembership is the one path of a membership change. Under the
// write side of memMu, which waits out every in-flight attempt, edit
// computes the next node list from the current one (nil: nothing to
// change) and the mesh is rebuilt over it.
func (c *Cluster) changeMembership(change string, edit func(nodes []*Node) ([]*Node, error)) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("cluster: %s on a closed cluster", change)
	}
	next, err := edit(c.Nodes)
	if next == nil {
		return err
	}
	//lint:allow lockblock memMu is the membership lock: the write acquire drained every query (a failed attempt released its read side before evicting, and the detector already fenced the dead node), so the rebuild's mux closes complete, and nothing reached from here waits on memMu itself
	return c.rebuildLocked(next)
}

// rebuildLocked replaces the mesh: it stops the old one, shuts down every
// node that is not in next, wires a fresh fully-connected mesh over next
// (dense ids 0..n-1), re-partitions every cataloged table from its
// retained source, and only then bumps the epoch. Caller holds memMu for
// write; with the write lock held no query attempt is in flight, so the
// teardown closes quiet components.
func (c *Cluster) rebuildLocked(next []*Node) error {
	c.stopMesh()
	for _, n := range c.Nodes {
		if !slices.Contains(next, n) {
			n.kill()
		}
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
