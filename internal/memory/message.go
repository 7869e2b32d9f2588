// Package memory implements the message buffers and NUMA-aware registered
// message pools of the communication multiplexer (Figure 7 of the paper).
//
// A message has two parts. The first part stays local: the RDMA memory
// key, the NUMA node the buffer lives on and a retain count (used by
// broadcast exchange operators to send one buffer to n−1 servers without
// copying it). Only the second part crosses the network: the identifier of
// the logical exchange operator, a last-message indicator, the number of
// bytes used and the serialized tuples.
//
// Buffers are pooled per NUMA node. Registering a memory region with the
// HCA is expensive (§2.2.2), so buffers are registered once when first
// allocated and then recycled through the pool instead of being freed.
package memory

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hsqp/internal/numa"
)

// DefaultMessageSize is the paper's message size: 512 KB amortizes the
// synchronization cost of network scheduling completely (Figure 10(c)).
const DefaultMessageSize = 512 * 1024

// HeaderSize is the wire overhead per message: query id (4), exchange id
// (4), flags (1), bytes used (4), sender (2), sequence (4), partition (2).
const HeaderSize = 21

// Message is a pooled, "registered" network buffer.
type Message struct {
	// Local part (never serialized).
	RDMAKey uint32    // simulated memory-region key
	Node    numa.Node // home NUMA node of the buffer
	retain  atomic.Int32

	// Wire part.
	QueryID    int32 // query the exchange belongs to (multi-query routing)
	ExchangeID int32 // logical exchange operator this message belongs to
	Last       bool  // last message from this sender for this exchange
	Sender     int   // originating server
	Seq        uint32
	// Part routes a message to a specific parallel unit (worker) on the
	// destination server in the classic exchange-operator model; −1 means
	// "any worker" (hybrid parallelism).
	Part    int16
	Content []byte // serialized tuples; len(Content) is "bytes used"

	pool *NodePool // owning pool, for recycling
	cap  int
}

// WireSize returns the number of bytes the message occupies on the network:
// only the used part of a partially filled message is sent (§3.2).
func (m *Message) WireSize() int { return HeaderSize + len(m.Content) }

// Capacity returns the fixed capacity of the underlying buffer.
func (m *Message) Capacity() int { return m.cap }

// Remaining returns how many content bytes still fit.
func (m *Message) Remaining() int { return m.cap - len(m.Content) }

// Retain increments the reference count. Broadcast exchange operators
// retain a message once per additional destination so the buffer is reused
// rather than copied (§3.2).
func (m *Message) Retain(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("memory: Retain(%d)", n))
	}
	m.retain.Add(int32(n))
}

// Release decrements the reference count and recycles the buffer into its
// NUMA-local pool when it reaches zero.
func (m *Message) Release() {
	r := m.retain.Add(-1)
	switch {
	case r > 0:
		return
	case r < 0:
		panic("memory: message released more often than retained")
	}
	if m.pool != nil {
		m.pool.put(m)
	}
}

// Reset clears the wire part for reuse.
func (m *Message) Reset() {
	m.QueryID = 0
	m.ExchangeID = 0
	m.Last = false
	m.Sender = 0
	m.Seq = 0
	m.Part = -1
	m.Content = m.Content[:0]
}

// PoolStats describes pool behaviour: how many buffers were newly
// allocated+registered versus recycled.
type PoolStats struct {
	Allocated uint64 // fresh allocations (each pays registration cost)
	Recycled  uint64 // reuses from the pool
	Returned  uint64 // buffers put back
}

// Pool is a set of per-NUMA-node message pools for one server.
type Pool struct {
	topo    *numa.Topology
	policy  numa.AllocPolicy
	msgSize int
	nodes   []*NodePool

	registerCost  func() // charged per fresh allocation (may be nil)
	nextKey       atomic.Uint32
	interleaveIdx atomic.Uint64
}

// NodePool is the free list of a single NUMA node.
type NodePool struct {
	parent *Pool
	node   numa.Node
	mu     sync.Mutex
	free   []*Message
	stats  PoolStats
}

// NewPool creates a message pool for a server with the given topology and
// allocation policy. msgSize ≤ 0 selects DefaultMessageSize. registerCost,
// if non-nil, is invoked once per fresh buffer to model memory-region
// registration (pinning) cost.
func NewPool(topo *numa.Topology, policy numa.AllocPolicy, msgSize int, registerCost func()) *Pool {
	if msgSize <= 0 {
		msgSize = DefaultMessageSize
	}
	p := &Pool{
		topo:         topo,
		policy:       policy,
		msgSize:      msgSize,
		registerCost: registerCost,
	}
	p.nodes = make([]*NodePool, topo.Sockets)
	for i := range p.nodes {
		p.nodes[i] = &NodePool{parent: p, node: numa.Node(i)}
	}
	return p
}

// MessageSize returns the configured buffer capacity.
func (p *Pool) MessageSize() int { return p.msgSize }

// Policy returns the pool's allocation policy.
func (p *Pool) Policy() numa.AllocPolicy { return p.policy }

// Get returns an empty message for a worker pinned to socket local. The
// buffer's home node follows the pool's allocation policy; under
// AllocLocal it is NUMA-local to the worker (step 4 in Figure 7).
func (p *Pool) Get(local numa.Node) *Message {
	if p.policy == numa.AllocInterleaved {
		n := p.interleaveIdx.Add(1)
		m := p.nodes[int(n)%len(p.nodes)].get()
		m.Node = numa.NodeInterleaved
		return m
	}
	node := p.topo.AllocNode(p.policy, local)
	return p.nodes[node].get()
}

// GetOn returns an empty message for the receive queue of the given
// socket. NUMA-aware pools home it there; interleaved pools spread its
// pages; single-socket pools always allocate on socket 0 (Figure 9's
// degraded policies).
func (p *Pool) GetOn(node numa.Node) *Message {
	switch p.policy {
	case numa.AllocInterleaved:
		m := p.nodes[int(node)%len(p.nodes)].get()
		m.Node = numa.NodeInterleaved
		return m
	case numa.AllocSingleSocket:
		return p.nodes[0].get()
	default:
		return p.nodes[node].get()
	}
}

// Stats aggregates statistics over all node pools.
func (p *Pool) Stats() PoolStats {
	var out PoolStats
	for _, np := range p.nodes {
		np.mu.Lock()
		out.Allocated += np.stats.Allocated
		out.Recycled += np.stats.Recycled
		out.Returned += np.stats.Returned
		np.mu.Unlock()
	}
	return out
}

func (np *NodePool) get() *Message {
	np.mu.Lock()
	if n := len(np.free); n > 0 {
		m := np.free[n-1]
		np.free = np.free[:n-1]
		np.stats.Recycled++
		np.mu.Unlock()
		m.Reset()
		m.Node = np.node
		m.retain.Store(1)
		return m
	}
	np.stats.Allocated++
	np.mu.Unlock()

	p := np.parent
	if p.registerCost != nil {
		p.registerCost()
	}
	m := &Message{
		RDMAKey: p.nextKey.Add(1),
		Node:    np.node,
		Part:    -1,
		Content: make([]byte, 0, p.msgSize),
		pool:    np,
		cap:     p.msgSize,
	}
	m.retain.Store(1)
	return m
}

func (np *NodePool) put(m *Message) {
	m.Reset()
	np.mu.Lock()
	np.stats.Returned++
	np.free = append(np.free, m)
	np.mu.Unlock()
}

// Get0 returns an empty message homed on socket 0 (convenience for
// benchmarks and single-socket callers).
func (p *Pool) Get0() *Message { return p.Get(0) }
