package exchange

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hsqp/internal/invariant"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
)

// ControlConfig wires a coordinator's control exchange: a dedicated
// exchange on which every server sends exactly one message.
type ControlConfig struct {
	Mux     *mux.Mux
	Pool    *memory.Pool
	QueryID int32 // query the control exchange belongs to
	ExID    int32 // the control exchange
	Servers int
	// Cancel, when closed, aborts the round so a failing query cannot
	// deadlock a server waiting for a message that will never arrive.
	Cancel <-chan struct{}
}

// controlRound is one all-to-all round on a control exchange, the protocol
// shared by the skew coordinator (hot-key sketches) and the semi-join
// filter (Bloom filters of build keys). Every server sends one
// Last-flagged message to every server — one buffer, Retain-shared — and
// collects the n messages of the round. Each server then runs the same
// deterministic merge over them (indexed by sender), publishes, and wakes
// whatever waits on the result. A cancelled query aborts the wait and
// releases what arrived. A coordinator embeds its round and calls init.
type controlRound struct {
	cfg    ControlConfig
	recv   *mux.ExchangeRecv
	merger merger

	sent    atomic.Bool
	mu      sync.Mutex
	wakes   []func()
	wakeBuf [1]func() // wakes' first slot: one gated pipeline per round
	done    atomic.Bool
	err     error // set before done; read after it
}

// merger is a coordinator's part in its round.
type merger interface {
	// merge folds the round's messages, indexed by sender, into the
	// coordinator's published state. It runs once, on the gather
	// goroutine, before the round is published, and must not keep a
	// message: the round releases them all when it returns.
	merge(msgs []*memory.Message) error
}

// init opens the round's control exchange (every server sends exactly one
// Last-flagged message on it).
func (r *controlRound) init(cfg ControlConfig, merger merger) {
	if cfg.Mux == nil || cfg.Pool == nil {
		invariant.Failf("exchange: a control round needs a mux and a pool")
	}
	if cfg.Servers < 1 {
		invariant.Failf("exchange: a control round needs at least one server")
	}
	r.cfg, r.merger = cfg, merger
	r.recv = cfg.Mux.OpenExchange(cfg.QueryID, cfg.ExID, cfg.Servers)
	r.wakes = r.wakeBuf[:0]
}

// message returns a pooled buffer on node stamped as this server's one
// message of the round.
func (r *controlRound) message(node numa.Node) *memory.Message {
	msg := r.cfg.Pool.Get(node)
	msg.QueryID = r.cfg.QueryID
	msg.ExchangeID = r.cfg.ExID
	msg.Sender = r.cfg.Mux.ServerID()
	msg.Last = true // one message per sender closes the exchange
	msg.Seq = 0     // first and only message on this sender's streams
	return msg
}

// send broadcasts this server's message, once per round, and starts the
// gather in the background; it never blocks on the network.
func (r *controlRound) send(msg *memory.Message) {
	if r.sent.Swap(true) {
		invariant.Failf("exchange %d: a second control message from this server", r.cfg.ExID)
	}
	if r.cfg.Servers > 1 {
		msg.Retain(r.cfg.Servers - 1)
	}
	for d := 0; d < r.cfg.Servers; d++ {
		r.cfg.Mux.Send(d, msg)
	}
	go r.gather()
}

// gather collects one message per sender, merges them and publishes. A
// message from an unknown sender, a second one from the same sender, or a
// merge that rejects a message fails the round with an error naming the
// exchange and the sender; the round still waits for the exchange to
// close so no message is left unreleased.
func (r *controlRound) gather() {
	wake := make(chan struct{}, 1)
	r.recv.SetWake(func(bool) {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	msgs := make([]*memory.Message, r.cfg.Servers)
	var err error
	for {
		msg, done := r.recv.TryRecv(0)
		if msg == nil {
			if done {
				break // every sender's message is in (or the mux is shutting down)
			}
			select {
			case <-wake:
			case <-r.cfg.Cancel:
				releaseAll(msgs)
				r.drainAborted()
				r.publish(errRoundCancelled)
				return
			}
			continue
		}
		s := msg.Sender
		switch {
		case s < 0 || s >= len(msgs):
			err = firstErr(err, fmt.Errorf("exchange %d: control message from unknown server %d", r.cfg.ExID, s))
			msg.Release()
		case msgs[s] != nil:
			err = firstErr(err, fmt.Errorf("exchange %d: second control message from server %d", r.cfg.ExID, s))
			msg.Release()
		default:
			msgs[s] = msg
		}
	}
	for s, msg := range msgs {
		if msg == nil {
			err = firstErr(err, fmt.Errorf("exchange %d: no control message from server %d", r.cfg.ExID, s))
		}
	}
	if err == nil {
		err = r.merger.merge(msgs)
	}
	releaseAll(msgs)
	r.publish(err)
}

var errRoundCancelled = errors.New("exchange: control round abandoned: query cancelled")

// firstErr keeps the first error.
func firstErr(first, next error) error {
	if first != nil {
		return first
	}
	return next
}

func releaseAll(msgs []*memory.Message) {
	for _, msg := range msgs {
		if msg != nil {
			msg.Release()
		}
	}
}

// drainAborted releases whatever messages already arrived when the query
// was cancelled mid-gather.
func (r *controlRound) drainAborted() {
	for {
		msg, _ := r.recv.TryRecv(0)
		if msg == nil {
			return
		}
		msg.Release()
	}
}

// publish ends the round, successfully or with err, and fires the wakes.
func (r *controlRound) publish(err error) {
	r.mu.Lock()
	r.err = err
	wakes := r.wakes
	r.wakes = nil
	r.done.Store(true)
	r.mu.Unlock()
	for _, f := range wakes {
		f()
	}
}

// Ready reports whether the round has ended: its result is published, or
// Err says why there is none.
func (r *controlRound) Ready() bool { return r.done.Load() }

// Err reports why the round failed; nil while it runs and after a
// successful merge.
func (r *controlRound) Err() error {
	if !r.done.Load() {
		return nil
	}
	return r.err
}

// WaitReady blocks until the round's result is published, and fails when
// the round failed or the query is cancelled.
func (r *controlRound) WaitReady() error {
	if r.done.Load() {
		return r.err
	}
	ready := make(chan struct{})
	r.AddWake(func() { close(ready) })
	select {
	case <-ready:
		return r.Err()
	case <-r.cfg.Cancel:
		return errRoundCancelled
	}
}

// AddWake registers a callback fired when the round ends (the scheduler
// releases the gated pipeline with it). Fires at once if it already has.
func (r *controlRound) AddWake(f func()) {
	r.mu.Lock()
	if !r.done.Load() {
		r.wakes = append(r.wakes, f)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	f()
}
