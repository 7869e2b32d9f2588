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
// The send side has one lock and one wait: sendMu guards a FIFO per
// destination, the barriers heard and the schedule's state, and the
// network goroutine steps a sched.Loop under it, posts outside it and
// blocks in one select. With scheduling enabled the step follows the
// round-robin schedule: up to BatchPerPhase messages to the phase's single
// target, then a low-latency inline synchronization barrier with the
// phase's single source before moving on (§3.2.3), and a round that moved
// nothing waits out a short idle pace before the next. Without scheduling
// it drains all destination FIFOs eagerly — the uncoordinated all-to-all
// baseline that suffers switch contention — and a pass that moved nothing
// parks the loop until a Send, PeerDown, Freeze or Close wakes it.
//
// The express rule: a message no larger than the link's bandwidth-delay
// product (Fabric.BDP: 42.5 KB at GbE, 5.2 KB at 4xQDR) skips the send
// loop and goes straight to the transport, provided its own (query,
// exchange) stream has no entry in that destination's FIFO (an entry
// leaves it only once Transport.Send returned for it) and the multiplexer
// is not frozen. Such a message is latency-bound: a round of the schedule
// would cost it far more than it could collide, and it is what Last
// markers, final flushes and control messages are. Everything else
// queues, so per-stream FIFO order holds: a message never overtakes an
// earlier one of its stream.
package mux

import (
	"fmt"
	"maps"
	"slices"
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
	// sendQueue is the per-destination FIFO depth.
	sendQueue = 32
	// idleSleep throttles the scheduled loop when a whole round moved no
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
	DroppedMsgs  uint64 // messages of closed queries, still queued or arriving after CloseQuery
	ExpressMsgs  uint64 // of MsgsSent, those that skipped the send loop
}

// ExchangeKey addresses one logical exchange operator cluster-wide:
// queries run concurrently over the same multiplexer, so a bare exchange
// id is ambiguous — routing is on (query, exchange).
type ExchangeKey struct {
	Query    int32
	Exchange int32
}

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
	bdp       int // express size limit: the link's bandwidth-delay product

	// sendMu guards the send side for workers (Send), the network
	// goroutine and delivery goroutines (OnInline). Nothing blocks under
	// it but a Send waiting for room in a full FIFO.
	sendMu sync.Mutex
	room   *sync.Cond // a FIFO entry left, or the multiplexer stopped
	queues queues
	loop   *sched.Loop
	parked bool         // the loop is blocked in its select on wait
	wait   sched.Action // what it waits for: Idle, or Wait on source Peer's barrier (−1: on none)

	mu        sync.Mutex
	exchanges map[ExchangeKey]*ExchangeRecv // open from compile to CloseQuery

	recvRotate atomic.Uint64 // rotates posted receive buffers over sockets

	// heard[src] counts every frame received from server src — data,
	// barriers and probe echoes alike. Any frame proves its sender was
	// alive when it left, so the failure detector reads these instead of
	// soliciting echoes from a peer the schedule already makes talk.
	heard []atomic.Uint64

	frozen atomic.Bool // SIGSTOP model: the network loop posts nothing, probes go unanswered

	bytesSent   atomic.Uint64
	msgsSent    atomic.Uint64
	localMsgs   atomic.Uint64
	stolenMsgs  atomic.Uint64
	barriers    atomic.Uint64
	droppedMsgs atomic.Uint64
	expressMsgs atomic.Uint64

	wakeCh  chan struct{} // pokes the network loop when work arrives
	stopCh  chan struct{}
	stopped atomic.Bool // set under sendMu: no Send queues after it
	wg      sync.WaitGroup
}

// queues is the send-side state a schedule step reads, under sendMu.
type queues struct {
	fifo      [][]entry // per destination, at most sendQueue entries
	barrierHi []uint32  // barrierHi[src]: 1 + the highest barrier tag heard from src, 0 for none
	down      []bool    // failed servers: barriers with them complete at once
}

// entry is one queued message and its stream, read before the message
// was queued: once sent, the receiver may recycle the buffer.
type entry struct {
	msg    *memory.Message
	stream ExchangeKey
}

func (q *queues) Queued(dst int) int { return len(q.fifo[dst]) }

// Synced reports whether the barrier (src, tag) has completed: src has
// sent tag or a later one, or is down. A tag older than the highest heard
// completes nothing new.
func (q *queues) Synced(src int, tag uint32) bool { return q.barrierHi[src] > tag || q.down[src] }

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
		cfg: cfg,
		queues: queues{
			fifo:      make([][]entry, cfg.Servers),
			barrierHi: make([]uint32, cfg.Servers),
			down:      make([]bool, cfg.Servers),
		},
		loop:      sc.Loop(cfg.Server, BatchPerPhase, !cfg.Scheduling),
		exchanges: make(map[ExchangeKey]*ExchangeRecv),
		heard:     make([]atomic.Uint64, cfg.Servers),
		wakeCh:    make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
	}
	m.room = sync.NewCond(&m.sendMu)
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
	m.route(msg)
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
		if src < 0 || src >= m.cfg.Servers {
			return // not a server of this cluster
		}
		// Wake the loop only for the barrier it is parked on: a barrier
		// that ended an idle wait would turn the idle pace into barrier
		// ping-pong.
		m.sendMu.Lock()
		m.queues.barrierHi[src] = max(m.queues.barrierHi[src], tag+1)
		m.wakeLocked(m.wait.Kind == sched.Wait && src == m.wait.Peer && tag >= m.wait.Tag)
		m.sendMu.Unlock()
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
	m.sendMu.Lock()
	m.queues.down[src] = true
	m.wakeLocked(true)
	m.sendMu.Unlock()
}

// Freeze models a SIGSTOPped server process: the network loop posts
// nothing (no message is sent, barriers are never answered) and liveness
// probes go unanswered, while the simulated NIC keeps acknowledging
// inbound traffic — exactly what peers of a frozen process observe.
// Freeze(false) resumes.
func (m *Mux) Freeze(on bool) {
	m.sendMu.Lock()
	m.frozen.Store(on)
	m.wakeLocked(true)
	m.sendMu.Unlock()
}

// wakeLocked wakes the network loop, under sendMu, if it is parked and
// ends says the event ends its wait. The loop empties wakeCh under sendMu
// each time it leaves its select, so a wake is sent at most once per park
// and never outlives it.
func (m *Mux) wakeLocked(ends bool) {
	if m.parked && ends {
		m.parked = false
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

// Close stops the network goroutine. Traffic should be quiesced first:
// what the FIFOs still hold once the loop has exited is released, once per
// reference, so a broadcast's retains stay balanced, and a Send that
// comes later, or that waits on a full FIFO, releases its message.
func (m *Mux) Close() {
	m.sendMu.Lock()
	first := !m.stopped.Swap(true)
	m.room.Broadcast()
	m.sendMu.Unlock()
	if first {
		close(m.stopCh)
		m.mu.Lock()
		exs := slices.Collect(maps.Values(m.exchanges))
		m.mu.Unlock()
		for _, ex := range exs {
			ex.Wake()
		}
	}
	m.wg.Wait()
	m.sendMu.Lock()
	for d, q := range m.queues.fifo {
		for _, e := range q {
			e.msg.Release()
		}
		m.queues.fifo[d] = nil
	}
	m.sendMu.Unlock()
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

// OpenExchanges reports how many exchanges are open (leak tests: zero once
// every query has been closed).
func (m *Mux) OpenExchanges() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.exchanges)
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
		m.route(msg)
		return
	}
	e := entry{msg: msg, stream: ExchangeKey{Query: msg.QueryID, Exchange: msg.ExchangeID}}
	q := &m.queues.fifo[dst]
	m.sendMu.Lock()
	queued := slices.ContainsFunc(*q, func(o entry) bool { return o.stream == e.stream })
	if !queued && msg.WireSize() <= m.bdp && !m.frozen.Load() && !m.stopped.Load() {
		m.sendMu.Unlock()
		m.expressMsgs.Add(1)
		m.transportSend(dst, msg)
		return
	}
	if len(*q) == sendQueue && !m.stopped.Load() {
		// Time the wait for room: that stall is backpressure from the
		// simulated link and one of the quantities the paper says
		// dominates distributed runtime.
		t0 := time.Now()
		for len(*q) == sendQueue && !m.stopped.Load() {
			m.room.Wait()
		}
		mSendStallNanos.AddDuration(time.Since(t0))
	}
	if m.stopped.Load() {
		m.sendMu.Unlock()
		msg.Release()
		return
	}
	*q = append(*q, e)
	// Parked on a barrier or frozen, the loop would step to the same wait.
	m.wakeLocked(m.wait.Kind == sched.Idle)
	m.sendMu.Unlock()
}

// route hands a message to its exchange's receive queues. A query's
// exchanges are open on every server from its compile to its CloseQuery
// (docs/invariants.md), so a message whose exchange is not open is a
// straggler of a query that already closed here: it is released and
// counted.
func (m *Mux) route(msg *memory.Message) {
	m.mu.Lock()
	ex := m.exchanges[ExchangeKey{Query: msg.QueryID, Exchange: msg.ExchangeID}]
	m.mu.Unlock()
	if ex == nil {
		m.drop(msg)
		return
	}
	ex.push(msg)
}

// CloseQuery is a query's one teardown: it forgets every exchange of the
// query and releases what they still queue or later receive (an aborted
// run's undrained receives and control rounds), so neither the routing
// map nor the pools leak across queries. A message of the query that
// arrives afterwards finds no exchange and is dropped by route.
func (m *Mux) CloseQuery(queryID int32) {
	var open []*ExchangeRecv
	m.mu.Lock()
	for key, ex := range m.exchanges {
		if key.Query == queryID {
			open = append(open, ex)
			delete(m.exchanges, key)
		}
	}
	m.mu.Unlock()
	for _, ex := range open {
		ex.close()
	}
}

// drop releases a message whose query has closed on this server.
func (m *Mux) drop(msg *memory.Message) {
	m.droppedMsgs.Add(1)
	mDroppedMsgs.Inc()
	msg.Release()
}

// networkLoop is the dedicated network goroutine. It steps the schedule
// under sendMu and does what the step asks outside it: posts FIFO heads
// or a barrier to the transport, or blocks in its one select until the
// awaited barrier, a Send during an idle wait, PeerDown, Freeze or Close
// wakes it, or, after a scheduled round that moved nothing, the idle pace
// runs out. An eager loop has no pace: every event that can give it work
// wakes it. Posted messages leave their FIFO only after Transport.Send
// returned for them.
func (m *Mux) networkLoop() {
	defer m.wg.Done()
	idle := time.NewTimer(idleSleep)
	defer idle.Stop()
	m.sendMu.Lock()
	for !m.stopped.Load() {
		act := m.loop.Step(&m.queues, m.frozen.Load())
		switch act.Kind {
		case sched.Post:
			// Only this goroutine takes entries off a FIFO, so the posted
			// ones stay put while Sends append behind them.
			posted := m.queues.fifo[act.Peer][:act.N]
			m.sendMu.Unlock()
			for _, e := range posted {
				m.transportSend(act.Peer, e.msg)
			}
			m.sendMu.Lock()
			m.queues.fifo[act.Peer] = slices.Delete(m.queues.fifo[act.Peer], 0, act.N)
			m.room.Broadcast()
		case sched.Barrier:
			m.sendMu.Unlock()
			m.transport.SendInline(act.Peer, act.Tag)
			m.barriers.Add(1)
			m.sendMu.Lock()
		default: // Wait, Idle
			m.parked, m.wait = true, act
			m.sendMu.Unlock()
			var pace <-chan time.Time
			if act.Kind == sched.Idle && m.cfg.Scheduling {
				idle.Reset(idleSleep)
				pace = idle.C
			}
			select {
			case <-m.stopCh:
			case <-m.wakeCh:
			case <-pace:
			}
			m.sendMu.Lock()
			m.parked = false
			select { // a wake that raced the idle pace or a stop
			case <-m.wakeCh:
			default:
			}
		}
	}
	m.sendMu.Unlock()
}

func (m *Mux) transportSend(dst int, msg *memory.Message) {
	m.bytesSent.Add(uint64(msg.WireSize()))
	m.msgsSent.Add(1)
	m.transport.Send(dst, msg)
}
