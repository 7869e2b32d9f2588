package mux

import (
	"fmt"
	"sync"
	"time"

	"hsqp/internal/invariant"
	"hsqp/internal/memory"
	"hsqp/internal/numa"
)

// ExchangeRecv is the receive side of one logical exchange operator on one
// server: one queue per NUMA socket plus intra-server work stealing
// (steps 5a/5b of Figure 7).
//
// Completion protocol: every sending server (including this one) sends
// exactly one message with Last=true as its final message for the
// exchange; once all Last markers have arrived and all queued messages
// have been consumed, Recv returns nil.
type ExchangeRecv struct {
	mux     *Mux
	queryID int32
	exID    int32

	mu        sync.Mutex
	cond      *sync.Cond
	queues    [][]*memory.Message // one FIFO per NUMA socket
	remaining int                 // senders that have not sent Last yet
	queued    int
	classic   *classicState // non-nil in classic exchange mode

	// lastSeq[sender] is the highest wire sequence number seen from that
	// server. Senders stamp strictly increasing per-destination sequence
	// numbers, so a regression or duplicate here means the transport (or a
	// sender) reordered the stream.
	lastSeq map[int]int64

	received uint64
	stolen   uint64

	wake func() // engine-scheduler callback fired on every delivery
}

func newExchangeRecv(m *Mux, queryID, exID int32, senders, sockets int) *ExchangeRecv {
	if senders < 1 {
		invariant.Failf("mux: exchange %d needs at least one sender", exID)
	}
	ex := &ExchangeRecv{
		mux:       m,
		queryID:   queryID,
		exID:      exID,
		queues:    make([][]*memory.Message, sockets),
		remaining: senders,
		lastSeq:   make(map[int]int64),
	}
	ex.cond = sync.NewCond(&ex.mu)
	return ex
}

// QueryID returns the id of the query the exchange belongs to.
func (ex *ExchangeRecv) QueryID() int32 { return ex.queryID }

// ExID returns the logical exchange operator id (unique within its query).
func (ex *ExchangeRecv) ExID() int32 { return ex.exID }

// checkSeqLocked asserts that messages from each sender arrive with
// strictly increasing sequence numbers. Gaps are legal (a selective
// broadcast advances all of the sender's destination counters at once),
// regressions and duplicates are not: per (sender, destination) the wire
// is FIFO end-to-end, so any non-monotonic sequence means messages were
// reordered or replayed. The caller panics with the returned message
// after releasing ex.mu — panicking under the lock would deadlock
// teardown paths (Mux.Close wakes every exchange).
func (ex *ExchangeRecv) checkSeqLocked(msg *memory.Message) string {
	prev, seen := ex.lastSeq[msg.Sender]
	if seen && int64(msg.Seq) <= prev {
		return fmt.Sprintf("mux: exchange %d: out-of-order message from server %d: seq %d after %d",
			ex.exID, msg.Sender, msg.Seq, prev)
	}
	ex.lastSeq[msg.Sender] = int64(msg.Seq)
	return ""
}

// SetWake registers a callback invoked after every message delivery, so a
// polling scheduler learns that the exchange may have input without a
// worker blocking in Recv. The callback runs outside the exchange lock.
func (ex *ExchangeRecv) SetWake(f func()) {
	ex.mu.Lock()
	ex.wake = f
	ex.mu.Unlock()
}

// push delivers a message into the queue of its home NUMA node (hybrid)
// or its target worker (classic).
func (ex *ExchangeRecv) push(msg *memory.Message) {
	if ex.classic != nil {
		ex.pushClassic(msg)
		return
	}
	node := int(msg.Node)
	if node < 0 || node >= len(ex.queues) {
		// Interleaved (or unknown) home: spread consumption over queues.
		node = int(ex.received % uint64(len(ex.queues)))
	}
	ex.mu.Lock()
	if viol := ex.checkSeqLocked(msg); viol != "" {
		ex.mu.Unlock()
		invariant.Failf("%s", viol)
	}
	ex.queues[node] = append(ex.queues[node], msg)
	ex.queued++
	ex.received++
	if msg.Last {
		ex.remaining--
		if ex.remaining < 0 {
			ex.mu.Unlock()
			invariant.Failf("mux: exchange %d received more Last markers than senders", ex.exID)
		}
	}
	ex.cond.Broadcast()
	wake := ex.wake
	ex.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// Recv returns the next message for a worker pinned to socket `local`,
// preferring the NUMA-local queue and stealing from other sockets when it
// is empty. It blocks while the exchange is still open and returns nil
// once all senders finished and all messages were consumed. The caller
// must Release the returned message after deserializing it.
func (ex *ExchangeRecv) Recv(local numa.Node) *memory.Message {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for {
		if ex.queued > 0 {
			// 5a: NUMA-local first.
			l := int(local)
			if l >= 0 && l < len(ex.queues) && len(ex.queues[l]) > 0 {
				return ex.popLocked(l, false)
			}
			// 5b: steal from the fullest remote queue.
			best, bestLen := -1, 0
			for i := range ex.queues {
				if i == l {
					continue
				}
				if len(ex.queues[i]) > bestLen {
					best, bestLen = i, len(ex.queues[i])
				}
			}
			if best >= 0 {
				return ex.popLocked(best, true)
			}
		}
		if ex.remaining == 0 {
			return nil
		}
		if ex.mux.stopped.Load() {
			return nil
		}
		t0 := time.Now()
		ex.cond.Wait()
		mRecvStallNanos.AddDuration(time.Since(t0))
	}
}

// TryRecv is a non-blocking Recv: it returns (nil, true) when the exchange
// is drained and closed, (nil, false) when no message is currently
// available, and (msg, false) otherwise.
func (ex *ExchangeRecv) TryRecv(local numa.Node) (msg *memory.Message, done bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.queued > 0 {
		l := int(local)
		if l >= 0 && l < len(ex.queues) && len(ex.queues[l]) > 0 {
			return ex.popLocked(l, false), false
		}
		for i := range ex.queues {
			if len(ex.queues[i]) > 0 {
				return ex.popLocked(i, i != l), false
			}
		}
	}
	return nil, ex.remaining == 0 || ex.mux.stopped.Load()
}

// TryRecvWorker is the non-blocking classic-mode receive for the fixed
// parallel unit `worker` (no stealing). done only turns true once *every*
// unit's partition is complete and drained: the classic exchange is one
// pipeline, and its sink must not finalize while another worker's
// partition still holds messages.
func (ex *ExchangeRecv) TryRecvWorker(worker int) (msg *memory.Message, done bool) {
	cs := ex.classic
	if cs == nil {
		invariant.Failf("mux: TryRecvWorker on a hybrid exchange")
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if q := cs.queues[worker]; len(q) > 0 {
		m := q[0]
		cs.queues[worker] = q[1:]
		return m, false
	}
	if ex.mux.stopped.Load() {
		return nil, true
	}
	for i := range cs.queues {
		if len(cs.queues[i]) > 0 || cs.remaining[i] > 0 {
			return nil, false
		}
	}
	return nil, true
}

func (ex *ExchangeRecv) popLocked(q int, steal bool) *memory.Message {
	msg := ex.queues[q][0]
	ex.queues[q] = ex.queues[q][1:]
	ex.queued--
	if steal {
		ex.stolen++
		ex.mux.stolenMsgs.Add(1)
	}
	return msg
}

// Drained reports whether all senders finished and every message was
// consumed (for tests).
func (ex *ExchangeRecv) Drained() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.remaining == 0 && ex.queued == 0
}

// StolenCount returns the number of messages consumed from a remote
// socket's queue.
func (ex *ExchangeRecv) StolenCount() uint64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.stolen
}

// Wake unblocks all waiting receivers (used at shutdown).
func (ex *ExchangeRecv) Wake() {
	ex.mu.Lock()
	ex.cond.Broadcast()
	ex.mu.Unlock()
}

// --- classic exchange-operator mode (§3.1 baseline) ---
//
// In the classic model every worker thread is its own parallel unit with a
// fixed input partition: messages carry a Part tag and land in that
// worker's private queue; there is no work stealing. Every sending server
// sends one Last marker per target worker.

// classicState extends an ExchangeRecv with per-worker queues.
type classicState struct {
	queues    [][]*memory.Message
	remaining []int // per worker: senders that have not sent Last
}

// OpenExchangeClassic registers an exchange in classic mode with `workers`
// parallel units on this server, each expecting `senders` Last markers.
func (m *Mux) OpenExchangeClassic(queryID, exID int32, senders, workers int) *ExchangeRecv {
	ex := newExchangeRecv(m, queryID, exID, senders, m.cfg.Topology.Sockets)
	ex.classic = &classicState{
		queues:    make([][]*memory.Message, workers),
		remaining: make([]int, workers),
	}
	for i := range ex.classic.remaining {
		ex.classic.remaining[i] = senders
	}
	key := ExchangeKey{Query: queryID, Exchange: exID}
	m.mu.Lock()
	if _, dup := m.exchanges[key]; dup {
		m.mu.Unlock()
		invariant.Failf("mux: exchange %d/%d opened twice", queryID, exID)
	}
	m.exchanges[key] = ex
	early := m.pending[key]
	delete(m.pending, key)
	m.mu.Unlock()
	for _, msg := range early {
		ex.push(msg)
	}
	return ex
}

// pushClassic routes a message into its target worker's private queue.
func (ex *ExchangeRecv) pushClassic(msg *memory.Message) {
	part := int(msg.Part)
	cs := ex.classic
	if part < 0 || part >= len(cs.queues) {
		part = 0
	}
	ex.mu.Lock()
	if viol := ex.checkSeqLocked(msg); viol != "" {
		ex.mu.Unlock()
		invariant.Failf("%s", viol)
	}
	cs.queues[part] = append(cs.queues[part], msg)
	ex.received++
	if msg.Last {
		cs.remaining[part]--
		if cs.remaining[part] < 0 {
			ex.mu.Unlock()
			invariant.Failf("mux: classic exchange %d worker %d got extra Last", ex.exID, part)
		}
	}
	ex.cond.Broadcast()
	wake := ex.wake
	ex.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// RecvWorker returns the next message for the fixed parallel unit
// `worker`, with no stealing — the classic model's inflexibility under
// skew. Returns nil once the unit's partition is complete.
func (ex *ExchangeRecv) RecvWorker(worker int) *memory.Message {
	cs := ex.classic
	if cs == nil {
		invariant.Failf("mux: RecvWorker on a hybrid exchange")
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for {
		if q := cs.queues[worker]; len(q) > 0 {
			msg := q[0]
			cs.queues[worker] = q[1:]
			return msg
		}
		if cs.remaining[worker] == 0 {
			return nil
		}
		if ex.mux.stopped.Load() {
			return nil
		}
		t0 := time.Now()
		ex.cond.Wait()
		mRecvStallNanos.AddDuration(time.Since(t0))
	}
}
