// Package mux implements the RDMA-based, NUMA-aware communication
// multiplexer of §3.2.2 (Figure 7).
//
// One multiplexer runs per server. It is the only component that talks to
// the network: decoupled exchange operators hand it full messages (step 3
// in Figure 7) and consume incoming messages from per-NUMA-socket receive
// queues (steps 5a/5b), stealing from remote sockets when their own queue
// is empty. Only the multiplexers are interconnected, so a cluster of n
// servers needs n(n−1) connections instead of the classic exchange
// operator model's n²t²−t.
//
// With scheduling enabled the send loop follows the round-robin schedule
// of package sched: up to BatchPerPhase messages to the phase's single
// target, then a low-latency inline synchronization barrier with the
// phase's single source before moving on (§3.2.3). Without scheduling it
// drains all destination queues eagerly — the uncoordinated all-to-all
// baseline that suffers switch contention.
//
// The express rule: a message no larger than the link's bandwidth-delay
// product (Fabric.BDP: 42.5 KB at GbE, 5.2 KB at 4xQDR) skips the send
// loop and goes straight to the transport, provided its own (query,
// exchange) stream has nothing queued or in flight to that destination
// and the multiplexer is not frozen. Such a message is latency-bound: a
// round of the schedule would cost it far more than it could collide, and
// it is what Last markers, final flushes and control messages are.
// Everything else queues, so per-stream FIFO order holds: a message never
// overtakes an earlier one of its stream.
package mux

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/invariant"
	"hsqp/internal/memory"
	"hsqp/internal/numa"
	"hsqp/internal/sched"
)

// BatchPerPhase is how many messages are sent to the fixed target of a
// phase before synchronizing (the paper uses 8 × 512 KB).
const BatchPerPhase = 8

// Transport abstracts the wire: a nic.Endpoint under its RDMA or TCP
// cost sheet.
type Transport interface {
	// Send transfers ownership of m; the transport releases it once the
	// buffer may be reused.
	Send(dst int, m *memory.Message)
	// SendInline sends a small latency-critical message.
	SendInline(dst int, tag uint32)
	// BDP is the link's bandwidth-delay product in bytes.
	BDP() int
}

// Config configures a multiplexer.
type Config struct {
	Server     int // this server's id
	Servers    int // cluster size
	Topology   *numa.Topology
	Pool       *memory.Pool
	Scheduling bool // round-robin network scheduling on/off
}

const (
	// sendQueue is the per-destination queue depth.
	sendQueue = 32
	// idleSleep throttles the schedule loop when a whole round moved no
	// data.
	idleSleep = 200 * time.Microsecond
)

// Stats reports multiplexer activity.
type Stats struct {
	BytesSent    uint64 // wire bytes handed to the transport (remote only)
	MsgsSent     uint64
	LocalMsgs    uint64 // messages short-circuited to local exchanges
	StolenMsgs   uint64 // messages consumed from a non-local NUMA queue
	SyncBarriers uint64
	DroppedMsgs  uint64 // messages of closed queries, still queued or late
	ExpressMsgs  uint64 // of MsgsSent, those that skipped the send loop
}

// ExchangeKey addresses one logical exchange operator cluster-wide:
// queries run concurrently over the same multiplexer, so a bare exchange
// id is ambiguous — routing is on (query, exchange).
type ExchangeKey struct {
	Query    int32
	Exchange int32
}

// closedQueryMemory bounds how many finished query ids the multiplexer
// remembers so straggler messages (e.g. from an aborted query's in-flight
// sends) are dropped instead of accumulating in the pending map forever.
const closedQueryMemory = 1024

// Inline tags are shared between the scheduler's synchronization barriers
// and the failure detector's probes. The two high bits discriminate:
// barriers use plain sequence numbers (the barrier counter would need 2^30
// phases to collide, far beyond any run), a probe request is probeReqBit
// and its echo probeAckBit. Every multiplexer advances the same barrier
// counter phase by phase, so the barriers one source sends here carry
// increasing numbers over a FIFO link: the highest one heard completes
// every phase up to it, and one number per source is all there is to
// remember.
const (
	probeReqBit uint32 = 1 << 31
	probeAckBit uint32 = 1 << 30
)

// Mux is one server's communication multiplexer.
type Mux struct {
	cfg       Config
	transport Transport
	schedule  *sched.Schedule

	sendQ []chan *memory.Message // per destination server
	bdp   int                    // express size limit: the link's bandwidth-delay product

	// outstanding[dst][stream] counts the messages of a (query, exchange)
	// stream to dst that sit in sendQ[dst] or in the network loop's hands,
	// not yet given to the transport. A stream goes express only at zero;
	// an entry is deleted when it gets there, so the maps stay small.
	streamMu    sync.Mutex
	outstanding []map[ExchangeKey]int

	mu         sync.Mutex
	exchanges  map[ExchangeKey]*ExchangeRecv
	pending    map[ExchangeKey][]*memory.Message // early arrivals before Open
	closed     map[int32]struct{}                // finished queries (late arrivals dropped)
	closedFifo []int32                           // eviction order for closed

	recvRotate atomic.Uint64 // rotates posted receive buffers over sockets

	inlineMu   sync.Mutex
	inlineCond *sync.Cond
	barrierHi  []uint32         // barrierHi[src]: 1 + the highest barrier tag heard from src, 0 for none
	deadPeers  map[int]struct{} // failed servers: barriers with them are no-ops

	// heard[src] counts every frame received from server src — data,
	// barriers and probe echoes alike. Any frame proves its sender was
	// alive when it left, so the failure detector reads these instead of
	// soliciting echoes from a peer the schedule already makes talk.
	heard []atomic.Uint64

	frozen atomic.Bool // SIGSTOP model: the network goroutine parks, probes go unanswered

	bytesSent   atomic.Uint64
	msgsSent    atomic.Uint64
	localMsgs   atomic.Uint64
	stolenMsgs  atomic.Uint64
	barriers    atomic.Uint64
	droppedMsgs atomic.Uint64
	expressMsgs atomic.Uint64

	wakeCh  chan struct{} // pokes the network loop when work arrives
	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New creates a multiplexer. Call SetTransport, then Start.
func New(cfg Config) (*Mux, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("mux: need at least one server, got %d", cfg.Servers)
	}
	if cfg.Server < 0 || cfg.Server >= cfg.Servers {
		return nil, fmt.Errorf("mux: server id %d out of range [0,%d)", cfg.Server, cfg.Servers)
	}
	if cfg.Pool == nil || cfg.Topology == nil {
		return nil, fmt.Errorf("mux: pool and topology are required")
	}
	sc, err := sched.New(cfg.Servers)
	if err != nil {
		return nil, err
	}
	m := &Mux{
		cfg:         cfg,
		schedule:    sc,
		sendQ:       make([]chan *memory.Message, cfg.Servers),
		outstanding: make([]map[ExchangeKey]int, cfg.Servers),
		exchanges:   make(map[ExchangeKey]*ExchangeRecv),
		pending:     make(map[ExchangeKey][]*memory.Message),
		closed:      make(map[int32]struct{}),
		barrierHi:   make([]uint32, cfg.Servers),
		deadPeers:   make(map[int]struct{}),
		heard:       make([]atomic.Uint64, cfg.Servers),
		wakeCh:      make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
	}
	m.inlineCond = sync.NewCond(&m.inlineMu)
	for i := range m.sendQ {
		m.sendQ[i] = make(chan *memory.Message, sendQueue)
		m.outstanding[i] = make(map[ExchangeKey]int)
	}
	return m, nil
}

// SetTransport installs the wire. Must be called before Start.
func (m *Mux) SetTransport(t Transport) {
	m.transport = t
	m.bdp = t.BDP()
}

// RecvAlloc returns the next posted receive buffer; the multiplexer
// receives messages for every NUMA region in turn (§3.2.2).
func (m *Mux) RecvAlloc() *memory.Message {
	n := m.recvRotate.Add(1)
	node := numa.Node(int(n) % m.cfg.Topology.Sockets)
	return m.cfg.Pool.GetOn(node)
}

// OnRecv is the transport's data-delivery callback.
func (m *Mux) OnRecv(msg *memory.Message) {
	m.hear(msg.Sender)
	m.route(msg, false)
}

// OnInline is the transport's inline-delivery callback: scheduler sync
// barriers plus the failure detector's probe request/echo traffic.
func (m *Mux) OnInline(src int, tag uint32) {
	m.hear(src)
	switch {
	case tag&probeReqBit != 0:
		// Liveness probe: echo it back unless this server is frozen or
		// already shut down (a dead or stopped process answers nothing).
		// The reply runs on the transport's delivery goroutine; it is a
		// single inline send, the same cost class as a barrier.
		if m.frozen.Load() || m.stopped.Load() {
			return
		}
		m.transport.SendInline(src, probeAckBit)
	case tag&probeAckBit != 0:
		// An echo's whole job was to be heard.
	default:
		if src < 0 || src >= len(m.barrierHi) {
			return // not a server of this cluster
		}
		m.inlineMu.Lock()
		if tag >= m.barrierHi[src] {
			m.barrierHi[src] = tag + 1
			m.inlineCond.Broadcast()
		}
		m.inlineMu.Unlock()
	}
}

// hear counts one frame from src. The id arrives off the wire (a message
// header or an inline work request), so it is range-checked.
func (m *Mux) hear(src int) {
	if src >= 0 && src < len(m.heard) {
		m.heard[src].Add(1)
	}
}

// Heard returns how many frames of any kind have arrived from server src.
// The count only grows; a reader that sees it advance between two samples
// knows src was alive in between.
func (m *Mux) Heard(src int) uint64 { return m.heard[src].Load() }

// Probe asks server dst for a sign of life without waiting for it: the
// echo, like every other frame from dst, shows up in Heard(dst). Probes
// bypass the network loop entirely (they go straight to the transport), so
// a stalled send schedule cannot mask a live peer, and a frozen local loop
// cannot stop the local server from probing others. A scheduled peer talks
// every round anyway; probe only one that has gone silent.
func (m *Mux) Probe(dst int) { m.transport.SendInline(dst, probeReqBit) }

// Ping probes server dst and waits up to timeout for Heard(dst) to advance.
// It reports false when nothing arrived in time — the destination is dead,
// frozen, or unreachable — or when this multiplexer is shutting down. Any
// frame from dst counts, not only the echo: each proves dst was alive
// after the call began, which is all a liveness check asks.
func (m *Mux) Ping(dst int, timeout time.Duration) bool {
	before := m.Heard(dst)
	m.Probe(dst)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	// Frames arrive on transport goroutines that signal nobody (the
	// counter is a bare atomic so the receive path stays lock-free): poll.
	poll := time.NewTicker(200 * time.Microsecond)
	defer poll.Stop()
	for m.Heard(dst) == before {
		select {
		case <-m.stopCh:
			return false
		case <-deadline.C:
			return m.Heard(dst) != before
		case <-poll.C:
		}
	}
	return true
}

// PeerDown records that server src has failed. The round-robin schedule
// barriers with every peer each round; a dead peer answers no barriers,
// which would park this server's network loop — and, through the
// then-full send queues, the whole worker pool — forever. After PeerDown
// a barrier whose source is the failed server completes immediately (the
// failure notification stands in for the sync the peer can no longer
// send), so the loop keeps draining traffic for the surviving servers
// while the aborted query unwinds. The cluster's failure detector calls
// this on every survivor after fencing the failed server.
func (m *Mux) PeerDown(src int) {
	m.inlineMu.Lock()
	m.deadPeers[src] = struct{}{}
	m.inlineCond.Broadcast()
	m.inlineMu.Unlock()
}

// Freeze models a SIGSTOPped server process: the network goroutine parks
// (nothing is sent, barriers are never answered) and liveness probes go
// unanswered, while the simulated NIC keeps acknowledging inbound traffic
// — exactly what peers of a frozen process observe. Freeze(false) resumes.
func (m *Mux) Freeze(on bool) {
	m.frozen.Store(on)
	if !on {
		select {
		case m.wakeCh <- struct{}{}:
		default:
		}
	}
}

// Start launches the network goroutine. The caller is responsible for
// starting the transport.
func (m *Mux) Start() {
	if m.transport == nil {
		invariant.Failf("mux: Start before SetTransport")
	}
	m.wg.Add(1)
	go m.networkLoop()
}

// Close stops the network goroutine. Traffic should be quiesced first.
func (m *Mux) Close() {
	if m.stopped.CompareAndSwap(false, true) {
		close(m.stopCh)
		m.inlineMu.Lock()
		m.inlineCond.Broadcast()
		m.inlineMu.Unlock()
		m.mu.Lock()
		exs := make([]*ExchangeRecv, 0, len(m.exchanges))
		for _, ex := range m.exchanges {
			exs = append(exs, ex)
		}
		m.mu.Unlock()
		for _, ex := range exs {
			ex.Wake()
		}
	}
	m.wg.Wait()
}

// Stats returns a snapshot of the counters.
func (m *Mux) Stats() Stats {
	return Stats{
		BytesSent:    m.bytesSent.Load(),
		MsgsSent:     m.msgsSent.Load(),
		LocalMsgs:    m.localMsgs.Load(),
		StolenMsgs:   m.stolenMsgs.Load(),
		SyncBarriers: m.barriers.Load(),
		DroppedMsgs:  m.droppedMsgs.Load(),
		ExpressMsgs:  m.expressMsgs.Load(),
	}
}

// TableSizes reports the current size of the routing maps (leak tests:
// both must return to zero once every query has been closed).
func (m *Mux) TableSizes() (exchanges, pending int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.exchanges), len(m.pending)
}

// ServerID returns this multiplexer's server id (senders stamp it into
// message headers).
func (m *Mux) ServerID() int { return m.cfg.Server }

// Send queues msg for delivery to server dst, or sends it express (see
// the package doc). The caller must have set msg.ExchangeID and msg.Sender
// before the first Send — a broadcast hands the *same* buffer to several
// destinations concurrently, so the header must not be written here — and
// must not send two messages of one stream to one destination
// concurrently: the stream's order is the order of its Send calls.
// Messages to the local server bypass the network entirely: the buffer is
// routed (zero-copy, NUMA home preserved) to the local receive queues. A
// stopped multiplexer releases msg.
func (m *Mux) Send(dst int, msg *memory.Message) {
	if dst == m.cfg.Server {
		m.localMsgs.Add(1)
		m.route(msg, true)
		return
	}
	if m.stopped.Load() {
		msg.Release()
		return
	}
	key := streamOf(msg)
	m.streamMu.Lock()
	if m.outstanding[dst][key] == 0 && msg.WireSize() <= m.bdp && !m.frozen.Load() {
		m.streamMu.Unlock()
		m.expressMsgs.Add(1)
		m.transportSend(dst, msg)
		return
	}
	m.outstanding[dst][key]++
	m.streamMu.Unlock()
	// Fast path: queue has room. Otherwise time the blocking wait — that
	// stall is backpressure from the simulated link and one of the
	// quantities the paper says dominates distributed runtime.
	select {
	case m.sendQ[dst] <- msg:
	default:
		t0 := time.Now()
		select {
		case m.sendQ[dst] <- msg:
			mSendStallNanos.AddDuration(time.Since(t0))
		case <-m.stopCh:
			mSendStallNanos.AddDuration(time.Since(t0))
			m.handed(dst, key)
			msg.Release()
			return
		}
	}
	select {
	case m.wakeCh <- struct{}{}:
	default:
	}
}

// route hands a message to its exchange's receive queues, buffering it if
// the exchange has not been opened yet. Messages addressed to a query that
// already finished (late stragglers of an aborted run) are released
// immediately instead of leaking into the pending map.
func (m *Mux) route(msg *memory.Message, local bool) {
	key := ExchangeKey{Query: msg.QueryID, Exchange: msg.ExchangeID}
	m.mu.Lock()
	ex, ok := m.exchanges[key]
	if !ok {
		if _, dead := m.closed[msg.QueryID]; dead {
			m.mu.Unlock()
			m.drop(msg)
			return
		}
		m.pending[key] = append(m.pending[key], msg)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	ex.push(msg)
}

// CloseQuery is a query's one teardown: it forgets every exchange of the
// query, releases what they still queue or later receive (an aborted
// run's undrained receives and control rounds) and any pending
// (never-opened) buffers, so neither the routing maps nor the pools leak
// across queries. The query id is remembered (bounded FIFO of
// closedQueryMemory entries) so in-flight stragglers are dropped on
// arrival instead of re-populating the pending map.
func (m *Mux) CloseQuery(queryID int32) {
	var drop []*memory.Message
	var open []*ExchangeRecv
	m.mu.Lock()
	for key, ex := range m.exchanges {
		if key.Query == queryID {
			open = append(open, ex)
			delete(m.exchanges, key)
		}
	}
	for key, msgs := range m.pending {
		if key.Query == queryID {
			drop = append(drop, msgs...)
			delete(m.pending, key)
		}
	}
	if _, seen := m.closed[queryID]; !seen {
		m.closed[queryID] = struct{}{}
		m.closedFifo = append(m.closedFifo, queryID)
		if len(m.closedFifo) > closedQueryMemory {
			delete(m.closed, m.closedFifo[0])
			m.closedFifo = m.closedFifo[1:]
		}
	}
	m.mu.Unlock()
	for _, ex := range open {
		ex.close()
	}
	for _, msg := range drop {
		m.drop(msg)
	}
}

// drop releases a message addressed to a closed query.
func (m *Mux) drop(msg *memory.Message) {
	m.droppedMsgs.Add(1)
	mDroppedMsgs.Inc()
	msg.Release()
}

// networkLoop is the dedicated network goroutine.
func (m *Mux) networkLoop() {
	defer m.wg.Done()
	if m.cfg.Servers == 1 {
		// Single server: nothing to do; local sends short-circuit.
		<-m.stopCh
		return
	}
	if m.cfg.Scheduling {
		m.scheduledLoop()
	} else {
		m.eagerLoop()
	}
}

// eagerLoop drains all destination queues as fast as possible —
// uncoordinated all-to-all (the contention-prone baseline). The drain
// order is randomized per round: deterministic order would make all
// multiplexers pick the same target simultaneously, which is a stronger
// adversary than the uncoordinated traffic the paper compares against.
func (m *Mux) eagerLoop() {
	n := m.cfg.Servers
	rng := uint64(m.cfg.Server)*0x9e3779b97f4a7c15 + 1
	idle := time.NewTimer(idleSleep)
	defer idle.Stop()
	for {
		if m.parkWhileFrozen(idle) {
			return
		}
		moved := false
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		off := int(rng % uint64(n))
		for k := 0; k < n; k++ {
			d := (k + off) % n
			if d == m.cfg.Server {
				continue
			}
			select {
			case msg := <-m.sendQ[d]:
				m.sendQueued(d, msg)
				moved = true
			default:
			}
		}
		if !moved {
			idle.Reset(idleSleep)
			select {
			case <-m.stopCh:
				return
			case <-m.wakeCh:
			case <-idle.C:
			}
		} else {
			select {
			case <-m.stopCh:
				return
			default:
			}
		}
	}
}

// scheduledLoop follows the round-robin schedule: per phase, send up to
// BatchPerPhase messages to the single target, then barrier with the
// single source via inline messages.
func (m *Mux) scheduledLoop() {
	phases := m.schedule.Phases()
	var seq uint32
	idle := time.NewTimer(idleSleep)
	defer idle.Stop()
	for {
		if m.parkWhileFrozen(idle) {
			return
		}
		roundMoved := false
		for k := 0; k < phases; k++ {
			target := m.schedule.Target(m.cfg.Server, k)
			source := m.schedule.Source(m.cfg.Server, k)
			sent := 0
		drain:
			for sent < BatchPerPhase {
				select {
				case msg := <-m.sendQ[target]:
					m.sendQueued(target, msg)
					sent++
				case <-m.stopCh:
					return
				default:
					break drain // nothing queued for this target right now
				}
			}
			if sent > 0 {
				roundMoved = true
			}
			// Barrier: tell the target this phase is over; wait for the
			// matching signal from the source.
			m.transport.SendInline(target, seq)
			m.barriers.Add(1)
			if !m.waitInline(source, seq) {
				return // shutting down
			}
			seq++
		}
		if !roundMoved {
			idle.Reset(idleSleep)
			select {
			case <-m.stopCh:
				return
			case <-m.wakeCh:
			case <-idle.C:
			}
		}
	}
}

// parkWhileFrozen holds the network loop while the mux is frozen, waiting
// on the loop's own timer; it reports true when the mux shut down during
// the freeze.
func (m *Mux) parkWhileFrozen(idle *time.Timer) bool {
	for m.frozen.Load() {
		idle.Reset(time.Millisecond)
		select {
		case <-m.stopCh:
			return true
		case <-idle.C:
		}
	}
	return false
}

func (m *Mux) transportSend(dst int, msg *memory.Message) {
	m.bytesSent.Add(uint64(msg.WireSize()))
	m.msgsSent.Add(1)
	m.transport.Send(dst, msg)
}

// streamOf is the (query, exchange) stream a message belongs to.
func streamOf(msg *memory.Message) ExchangeKey {
	return ExchangeKey{Query: msg.QueryID, Exchange: msg.ExchangeID}
}

// sendQueued gives a message the network loop took off sendQ[dst] to the
// transport. Only then does its stream count drop, so a later message of
// the stream cannot go express ahead of it. The key is read first: once
// sent, the receiver may recycle the buffer.
func (m *Mux) sendQueued(dst int, msg *memory.Message) {
	key := streamOf(msg)
	m.transportSend(dst, msg)
	m.handed(dst, key)
}

// handed retires one queued message of stream key to dst.
func (m *Mux) handed(dst int, key ExchangeKey) {
	m.streamMu.Lock()
	if n := m.outstanding[dst][key] - 1; n > 0 {
		m.outstanding[dst][key] = n
	} else {
		delete(m.outstanding[dst], key)
	}
	m.streamMu.Unlock()
}

// barrierHeard reports whether the barrier (src, tag) has arrived: src has
// sent tag or a later one. A tag older than the highest heard completes
// nothing new. The caller holds inlineMu.
func (m *Mux) barrierHeard(src int, tag uint32) bool {
	return m.barrierHi[src] > tag
}

// waitInline blocks until the inline sync (src, tag) has been observed.
// Returns false if the mux is shutting down.
func (m *Mux) waitInline(src int, tag uint32) bool {
	m.inlineMu.Lock()
	defer m.inlineMu.Unlock()
	for {
		if m.barrierHeard(src, tag) {
			return true
		}
		if _, down := m.deadPeers[src]; down {
			// The peer failed: it will never send this barrier. Complete the
			// phase so the loop keeps serving the surviving servers.
			return true
		}
		if m.stopped.Load() {
			return false
		}
		m.inlineCond.Wait()
	}
}
