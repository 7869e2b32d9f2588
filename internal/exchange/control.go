package exchange

import (
	"fmt"
	"sync/atomic"

	"hsqp/internal/engine"
	"hsqp/internal/invariant"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// ControlConfig wires a coordinator's control exchange: a dedicated
// exchange on which every server sends exactly one message.
type ControlConfig struct {
	Mux     *mux.Mux
	Pool    *memory.Pool
	QueryID int32 // query the control exchange belongs to
	ExID    int32 // the control exchange
	Servers int
}

// controlRound is one all-to-all round on a control exchange, the protocol
// shared by the skew coordinator (hot-key sketches) and the semi-join
// filter (Bloom filters of build keys). Every server sends one
// Last-flagged message to every server — one buffer, Retain-shared — and
// collects the n messages of the round. Each server then runs the same
// deterministic merge over them (indexed by sender) and publishes.
//
// The round is a pipeline whose source and sink are the round itself: the
// source yields no rows and drains once every sender's message has
// arrived (the control exchange wakes the scheduler), and the sink's
// Finalize merges and publishes. Whatever routes by the result depends on
// that pipeline. A query that ends before the round does leaves the
// messages to Mux.CloseQuery. A coordinator embeds its round and calls
// init.
type controlRound struct {
	cfg    ControlConfig
	recv   *mux.ExchangeRecv
	merger merger

	sent atomic.Bool
	done atomic.Bool // the result is published
}

// merger is a coordinator's part in its round.
type merger interface {
	// merge folds the round's messages, indexed by sender, into the
	// coordinator's published state. It runs once, in the round's
	// Finalize, and must not keep a message: the round releases them all
	// when it returns.
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

// send broadcasts this server's message, once per round; it never blocks
// on the network.
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
}

// Poll implements engine.Source: the round yields no rows and drains once
// every sender's message is in (or the multiplexer is shutting down).
func (r *controlRound) Poll(*engine.Worker) (*storage.Batch, bool) {
	return nil, r.recv.Complete()
}

// SetWake implements engine.WakeSource: each arrival wakes the scheduler.
func (r *controlRound) SetWake(f func(all bool)) { r.recv.SetWake(f) }

// Consume implements engine.Sink; the round's source yields no rows.
func (r *controlRound) Consume(*engine.Worker, *storage.Batch) {
	invariant.Failf("exchange %d: a control round consumed rows", r.cfg.ExID)
}

// Finalize implements engine.Sink: it collects one message per sender,
// merges them and publishes. A message from an unknown sender, a second
// one from the same sender, a missing one, or one the merge rejects fails
// the round with an error naming the exchange and the sender. Every
// message is released, also when one is malformed.
func (r *controlRound) Finalize() error {
	msgs := make([]*memory.Message, r.cfg.Servers)
	var err error
	for msg, _ := r.recv.TryRecv(0); msg != nil; msg, _ = r.recv.TryRecv(0) {
		if s := msg.Sender; s >= 0 && s < len(msgs) && msgs[s] == nil {
			msgs[s] = msg
		} else {
			if err == nil {
				err = fmt.Errorf("exchange %d: unexpected control message from server %d (unknown, or its second)", r.cfg.ExID, s)
			}
			msg.Release()
		}
	}
	for s, msg := range msgs {
		if msg == nil && err == nil {
			err = fmt.Errorf("exchange %d: no control message from server %d", r.cfg.ExID, s)
		}
	}
	if err == nil {
		err = r.merger.merge(msgs)
	}
	releaseAll(msgs)
	r.done.Store(err == nil)
	return err
}

// Ready reports whether the round's result is published.
func (r *controlRound) Ready() bool { return r.done.Load() }

func releaseAll(msgs []*memory.Message) {
	for _, msg := range msgs {
		if msg != nil {
			msg.Release()
		}
	}
}
