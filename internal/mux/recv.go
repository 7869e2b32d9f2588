package mux

import (
	"fmt"
	"sync"
	"time"

	"hsqp/internal/invariant"
	"hsqp/internal/memory"
)

// ExchangeRecv is the receive side of one logical exchange operator on one
// server: one FIFO lane per consumer group. The hybrid exchange has one
// lane per NUMA socket, keyed by a message's home node, and a worker whose
// lane is empty steals from the fullest other lane (steps 5a/5b of
// Figure 7). The classic exchange (§3.1) has one lane per worker, keyed by
// a message's Part, and never steals: each worker owns its partition.
//
// Completion protocol: every sending server (including this one) sends
// exactly one message with Last=true per receiving unit — one per server
// in the hybrid model, one per worker in the classic model — as its final
// message for that unit. Once every Last marker has arrived and every
// queued message has been consumed, the exchange is drained and Recv
// returns nil on every lane.
type ExchangeRecv struct {
	mux     *Mux
	queryID int32
	exID    int32

	mu        sync.Mutex
	cond      *sync.Cond
	lanes     [][]*memory.Message // one FIFO per socket (hybrid) or worker (classic)
	steal     bool                // hybrid: lanes keyed by Node, an empty one takes from the fullest other
	remaining int                 // Last markers not yet received
	queued    int
	closed    bool // the query closed: nothing more is queued (Mux.CloseQuery)

	// lastSeq[sender] is the highest wire sequence number seen from that
	// server. Senders stamp strictly increasing per-destination sequence
	// numbers, so a regression or duplicate here means the transport (or a
	// sender) reordered the stream.
	lastSeq map[int]int64

	received uint64
	stolen   uint64

	wake func(all bool) // engine-scheduler callback fired on every delivery
}

// OpenExchange registers a hybrid exchange of one query that will receive
// from `senders` servers (each sends exactly one Last-flagged message):
// one lane per NUMA socket, with stealing. Early arrivals buffered under
// this (query, exchange) key are replayed.
func (m *Mux) OpenExchange(queryID, exID int32, senders int) *ExchangeRecv {
	return m.open(queryID, exID, m.cfg.Topology.Sockets, senders, true)
}

// OpenExchangeClassic registers a classic exchange with `workers` parallel
// units on this server: one lane per worker, no stealing, and one Last
// marker expected per sender and worker.
func (m *Mux) OpenExchangeClassic(queryID, exID int32, senders, workers int) *ExchangeRecv {
	return m.open(queryID, exID, workers, senders*workers, false)
}

func (m *Mux) open(queryID, exID int32, lanes, lastMarkers int, steal bool) *ExchangeRecv {
	if lanes < 1 || lastMarkers < 1 {
		invariant.Failf("mux: exchange %d needs at least one lane and one sender", exID)
	}
	ex := &ExchangeRecv{
		mux:       m,
		queryID:   queryID,
		exID:      exID,
		lanes:     make([][]*memory.Message, lanes),
		steal:     steal,
		remaining: lastMarkers,
		lastSeq:   make(map[int]int64),
	}
	ex.cond = sync.NewCond(&ex.mu)
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
// A classic exchange sets all: only its lane's worker can take the message.
func (ex *ExchangeRecv) SetWake(f func(all bool)) {
	ex.mu.Lock()
	ex.wake = f
	ex.mu.Unlock()
}

// push delivers a message into its lane: its home NUMA node (hybrid) or
// its target worker (classic). A closed exchange releases it instead.
func (ex *ExchangeRecv) push(msg *memory.Message) {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		ex.mux.drop(msg)
		return
	}
	if viol := ex.checkSeqLocked(msg); viol != "" {
		ex.mu.Unlock()
		invariant.Failf("%s", viol)
	}
	lane := int(msg.Node)
	if !ex.steal {
		lane = int(msg.Part)
	}
	if lane < 0 || lane >= len(ex.lanes) {
		// Interleaved (or unknown) home: spread consumption over lanes.
		lane = int(ex.received % uint64(len(ex.lanes)))
	}
	ex.lanes[lane] = append(ex.lanes[lane], msg)
	ex.queued++
	ex.received++
	if msg.Last {
		ex.remaining--
		if ex.remaining < 0 {
			ex.mu.Unlock()
			invariant.Failf("mux: exchange %d received more Last markers than expected", ex.exID)
		}
	}
	ex.cond.Broadcast()
	wake := ex.wake
	ex.mu.Unlock()
	if wake != nil {
		wake(!ex.steal)
	}
}

// takeLocked pops the next message for a consumer of lane: from its own
// FIFO first (5a), else — when the exchange steals — from the fullest
// other lane (5b). It returns nil when nothing is available to the lane.
// The take that drains a finished exchange wakes every blocked Recv: a
// classic waiter whose own lane ran dry earlier learns only then that it
// is done.
func (ex *ExchangeRecv) takeLocked(lane int) *memory.Message {
	from := -1
	if lane >= 0 && lane < len(ex.lanes) && len(ex.lanes[lane]) > 0 {
		from = lane
	} else if ex.steal {
		best := 0
		for i, q := range ex.lanes {
			if i != lane && len(q) > best {
				from, best = i, len(q)
			}
		}
	}
	if from < 0 {
		return nil
	}
	msg := ex.lanes[from][0]
	ex.lanes[from] = ex.lanes[from][1:]
	ex.queued--
	if from != lane {
		ex.stolen++
		ex.mux.stolenMsgs.Add(1)
	}
	if ex.queued == 0 && ex.remaining == 0 {
		ex.cond.Broadcast()
	}
	return msg
}

// doneLocked reports whether the exchange is drained (or closed, or the
// multiplexer stopped): no lane will ever yield another message.
func (ex *ExchangeRecv) doneLocked() bool {
	return (ex.remaining == 0 && ex.queued == 0) || ex.closed || ex.mux.stopped.Load()
}

// Complete reports whether every Last marker has arrived, consumed or not
// (or the exchange closed, or the multiplexer stopped): nothing more will
// be queued.
func (ex *ExchangeRecv) Complete() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.remaining == 0 || ex.closed || ex.mux.stopped.Load()
}

// close releases what is queued, ends a waiting Recv and makes a later
// push release its message.
func (ex *ExchangeRecv) close() {
	ex.mu.Lock()
	ex.closed = true
	var drop []*memory.Message
	for i, q := range ex.lanes {
		drop = append(drop, q...)
		ex.lanes[i] = nil
	}
	ex.queued = 0
	ex.cond.Broadcast()
	ex.mu.Unlock()
	for _, msg := range drop {
		ex.mux.drop(msg)
	}
}

// TryRecv is the non-blocking receive for a consumer of lane: it returns
// (msg, false) when a message is available, (nil, false) while the
// exchange is open but has nothing for the lane, and (nil, true) once the
// whole exchange is drained. The caller must Release the returned message
// after deserializing it.
func (ex *ExchangeRecv) TryRecv(lane int) (msg *memory.Message, done bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if msg := ex.takeLocked(lane); msg != nil {
		return msg, false
	}
	return nil, ex.doneLocked()
}

// Recv is TryRecv that waits while the lane has nothing: it returns nil
// only once the whole exchange is drained. Time spent waiting counts as
// receive stall.
func (ex *ExchangeRecv) Recv(lane int) *memory.Message {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for {
		if msg := ex.takeLocked(lane); msg != nil {
			return msg
		}
		if ex.doneLocked() {
			return nil
		}
		t0 := time.Now()
		ex.cond.Wait()
		mRecvStallNanos.AddDuration(time.Since(t0))
	}
}

// Drained reports whether all senders finished and every message was
// consumed (for tests).
func (ex *ExchangeRecv) Drained() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.remaining == 0 && ex.queued == 0
}

// StolenCount returns the number of messages consumed from another lane
// than the consumer's own.
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
