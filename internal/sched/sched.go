// Package sched implements the application-level network schedule of
// §3.2.3: communication proceeds in distinct phases that prevent link
// sharing. In each phase every server has exactly one target it sends to
// and one source it receives from (Figure 10(a)); with n servers a full
// round consists of n−1 conflict-free phases.
//
// The schedule is the standard "round-robin tournament" permutation:
// in phase k (0-based), server i sends to (i+k+1) mod n and receives from
// (i−k−1) mod n. Every ordered pair of distinct servers meets exactly once
// per round, and within a phase the mapping sender→receiver is a
// permutation, so no two senders share an ingress port — the property that
// avoids head-of-line blocking and credit starvation in the switch.
package sched

import "fmt"

// Schedule is a round-robin communication schedule for n servers.
type Schedule struct {
	n int
}

// New creates a schedule for n ≥ 1 servers.
func New(n int) (*Schedule, error) {
	if n < 1 {
		return nil, fmt.Errorf("sched: need at least one server, got %d", n)
	}
	return &Schedule{n: n}, nil
}

// Phases returns the number of phases per round: n−1 (0 for a single
// server, which never communicates).
func (s *Schedule) Phases() int {
	if s.n <= 1 {
		return 0
	}
	return s.n - 1
}

// Target returns the server that `self` sends to in phase k.
func (s *Schedule) Target(self, k int) int {
	s.check(self, k)
	return (self + k + 1) % s.n
}

// Source returns the server that `self` receives from in phase k.
func (s *Schedule) Source(self, k int) int {
	s.check(self, k)
	return ((self-k-1)%s.n + s.n) % s.n
}

func (s *Schedule) check(self, k int) {
	if self < 0 || self >= s.n {
		panic(fmt.Sprintf("sched: server %d out of range [0,%d)", self, s.n))
	}
	if k < 0 || k >= s.Phases() {
		panic(fmt.Sprintf("sched: phase %d out of range [0,%d)", k, s.Phases()))
	}
}

// Queues is what a Loop reads of its multiplexer, under the lock it steps
// under: how many messages wait in dst's FIFO, and whether barrier tag of
// src completed (src sent it or a later one, or src is down).
type Queues interface {
	Queued(dst int) int
	Synced(src int, tag uint32) bool
}

// Kind is the kind of an Action.
type Kind uint8

const (
	Wait    Kind = iota // block until woken: a barrier is due, or frozen or alone
	Idle                // a round moved nothing: block until woken or the idle pace ends
	Post                // hand the first N messages of Peer's FIFO to the transport
	Barrier             // send barrier Tag to Peer
)

// Action is what a Loop asks its multiplexer to do next. Peer is the
// destination of a Post or Barrier and the source a Wait's barrier comes
// from (−1 for a wait on no barrier); Tag is the barrier sent or awaited.
type Action struct {
	Kind Kind
	Peer int
	N    int
	Tag  uint32
}

// Loop is one server's walk through the schedule, a step function with no
// goroutine, transport or clock. Scheduled (§3.2.3), each phase posts up
// to batch messages to its one target, then its barrier, and waits for
// its one source's barrier. Eager, each pass posts one message to every
// destination with one queued, from a random start (a fixed one would
// make every server pick the same target at once): the uncoordinated
// all-to-all baseline.
type Loop struct {
	s           *Schedule
	self, batch int
	eager       bool
	phase, sent int    // scheduled: the round's phase, messages posted in it
	seq         uint32 // scheduled: the phase's barrier tag
	posted      bool   // scheduled: the phase's barrier went out
	moved       bool   // the round or pass posted a message
	rng         uint64 // eager: xorshift state picking each pass's start
	off, pos    int    // eager: the pass's start and how far it got
}

// Loop returns server self's walk, posting at most batch messages per
// scheduled phase, or eager when eager is set.
func (s *Schedule) Loop(self, batch int, eager bool) *Loop {
	l := &Loop{s: s, self: self, batch: batch, eager: eager,
		rng: uint64(self)*0x9e3779b97f4a7c15 + 1}
	l.next()
	return l
}

// Step returns the next action from what q holds; it never blocks and
// only reads q. After a Post the multiplexer takes the posted messages off
// the FIFO before the next step. A round (scheduled) or pass (eager) that
// posted nothing ends in Idle.
func (l *Loop) Step(q Queues, frozen bool) Action {
	if frozen || l.s.n == 1 {
		return Action{Kind: Wait, Peer: -1}
	}
	for l.eager {
		if l.pos == l.s.n && !l.next() {
			return Action{Kind: Idle, Peer: -1}
		}
		d := (l.pos + l.off) % l.s.n
		if l.pos++; d != l.self && q.Queued(d) > 0 {
			l.moved = true
			return Action{Kind: Post, Peer: d, N: 1}
		}
	}
	for {
		target, source := l.s.Target(l.self, l.phase), l.s.Source(l.self, l.phase)
		if !l.posted {
			if n := min(q.Queued(target), l.batch-l.sent); n > 0 {
				l.sent, l.moved = l.sent+n, true
				return Action{Kind: Post, Peer: target, N: n}
			}
			l.posted = true
			return Action{Kind: Barrier, Peer: target, Tag: l.seq}
		}
		if !q.Synced(source, l.seq) {
			return Action{Kind: Wait, Peer: source, Tag: l.seq}
		}
		l.seq, l.sent, l.posted = l.seq+1, 0, false
		if l.phase = (l.phase + 1) % l.s.Phases(); l.phase == 0 && !l.next() {
			return Action{Kind: Idle, Peer: -1}
		}
	}
}

// next ends a round or pass, reporting whether it moved data, and starts
// the next one.
func (l *Loop) next() (moved bool) {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	moved, l.moved = l.moved, false
	l.off, l.pos = int(l.rng%uint64(l.s.n)), 0
	return moved
}
