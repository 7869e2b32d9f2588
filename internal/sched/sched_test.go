package sched

import (
	"testing"
	"testing/quick"
)

func TestPhasesCount(t *testing.T) {
	for n := 1; n <= 16; n++ {
		s, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		want := n - 1
		if n == 1 {
			want = 0
		}
		if got := s.Phases(); got != want {
			t.Fatalf("n=%d: phases %d, want %d", n, got, want)
		}
	}
}

// TestPermutationPerPhase verifies the core conflict-freedom property of
// Figure 10(a): within one phase, the sender→target mapping is a
// permutation (no two senders share a receiver) and nobody sends to
// itself.
func TestPermutationPerPhase(t *testing.T) {
	for n := 2; n <= 12; n++ {
		s, _ := New(n)
		for k := 0; k < s.Phases(); k++ {
			seen := make(map[int]int)
			for srv := 0; srv < n; srv++ {
				tgt := s.Target(srv, k)
				if tgt == srv {
					t.Fatalf("n=%d phase=%d: server %d targets itself", n, k, srv)
				}
				if prev, dup := seen[tgt]; dup {
					t.Fatalf("n=%d phase=%d: servers %d and %d share target %d", n, k, prev, srv, tgt)
				}
				seen[tgt] = srv
			}
		}
	}
}

// TestAllPairsMeetOnce: over a full round every ordered pair of distinct
// servers communicates exactly once.
func TestAllPairsMeetOnce(t *testing.T) {
	for n := 2; n <= 10; n++ {
		s, _ := New(n)
		pairs := make(map[[2]int]int)
		for k := 0; k < s.Phases(); k++ {
			for srv := 0; srv < n; srv++ {
				pairs[[2]int{srv, s.Target(srv, k)}]++
			}
		}
		if len(pairs) != n*(n-1) {
			t.Fatalf("n=%d: %d distinct pairs, want %d", n, len(pairs), n*(n-1))
		}
		for p, c := range pairs {
			if c != 1 {
				t.Fatalf("n=%d: pair %v met %d times", n, p, c)
			}
		}
	}
}

// TestSourceTargetDual: i receives from j in phase k iff j sends to i.
func TestSourceTargetDual(t *testing.T) {
	f := func(n8, k8, i8 uint8) bool {
		n := int(n8%14) + 2
		s, _ := New(n)
		k := int(k8) % s.Phases()
		i := int(i8) % n
		j := s.Source(i, k)
		return s.Target(j, k) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseMappingIsConflictFreePermutation is the property test behind
// the DAG scheduler's use of the schedule: for every n ∈ 2..16 and every
// phase chosen by the fuzzer, the sender→target mapping must be a
// conflict-free permutation — a bijection with no fixed point whose
// inverse is exactly Source. That is the invariant that keeps every link
// busy without two senders sharing an ingress port.
func TestPhaseMappingIsConflictFreePermutation(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int(n8%15) + 2 // n ∈ [2,16]
		s, err := New(n)
		if err != nil {
			return false
		}
		k := int(k8) % s.Phases()
		targets := make(map[int]bool, n)
		for srv := 0; srv < n; srv++ {
			tgt := s.Target(srv, k)
			if tgt < 0 || tgt >= n || tgt == srv {
				return false // out of range or self-send
			}
			if targets[tgt] {
				return false // two senders share an ingress port
			}
			targets[tgt] = true
			if s.Source(tgt, k) != srv {
				return false // inverse mapping disagrees
			}
		}
		return len(targets) == n // surjective onto the servers
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Exhaustive sweep of the same property for every n ∈ 2..16, every
	// phase (the fuzzer samples; this pins the full grid).
	for n := 2; n <= 16; n++ {
		s, _ := New(n)
		for k := 0; k < s.Phases(); k++ {
			seen := make(map[int]bool, n)
			for srv := 0; srv < n; srv++ {
				seen[s.Target(srv, k)] = true
			}
			if len(seen) != n {
				t.Fatalf("n=%d phase=%d: mapping is not a permutation", n, k)
			}
		}
	}
}

func TestNewRejectsBadSize(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) should fail")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("New(-3) should fail")
	}
}

// queues is a multiplexer's send side as a step reads it: FIFO lengths,
// the highest barrier tag heard per source (plus one) and the failed
// servers.
type queues struct {
	queued []int
	hi     []uint32
	down   []bool
}

func newQueues(n, each int) *queues {
	q := &queues{queued: make([]int, n), hi: make([]uint32, n), down: make([]bool, n)}
	for d := range q.queued {
		q.queued[d] = each
	}
	return q
}

func (q *queues) Queued(dst int) int              { return q.queued[dst] }
func (q *queues) Synced(src int, tag uint32) bool { return q.hi[src] > tag || q.down[src] }

// step steps l and, as the multiplexer does, takes a Post's messages off
// the FIFO.
func (q *queues) step(l *Loop, frozen bool) Action {
	a := l.Step(q, frozen)
	if a.Kind == Post {
		q.queued[a.Peer] -= a.N
	}
	return a
}

// TestLoopScheduledPhases walks the scheduled step over three rounds for
// every server of meshes of 2 to 6 while workers keep queuing: each phase
// posts batch messages, no more, all to the phase's target, including
// ones queued after its first post, then one barrier tagged with the
// phase's number; it waits
// until the phase's source sent that tag or a later one, and neither a
// stale tag nor another server's tag ends the wait.
func TestLoopScheduledPhases(t *testing.T) {
	const batch = 8
	for n := 2; n <= 6; n++ {
		s, _ := New(n)
		for self := 0; self < n; self++ {
			q := newQueues(n, 5)
			l := s.Loop(self, batch, false)
			for seq := uint32(0); seq < uint32(3*s.Phases()); seq++ {
				k := int(seq) % s.Phases()
				target, source := s.Target(self, k), s.Source(self, k)
				posted := 0
				a := q.step(l, false)
				for ; a.Kind == Post; a = q.step(l, false) {
					if a.Peer != target || a.N < 1 {
						t.Fatalf("n=%d self=%d phase %d: %+v, want posts to %d", n, self, seq, a, target)
					}
					posted += a.N
					q.queued[target] += 5 // a worker queues more meanwhile
				}
				if posted != batch {
					t.Fatalf("n=%d self=%d phase %d: posted %d, want %d", n, self, seq, posted, batch)
				}
				if want := (Action{Kind: Barrier, Peer: target, Tag: seq}); a != want {
					t.Fatalf("n=%d self=%d phase %d: %+v, want %+v", n, self, seq, a, want)
				}
				wait := Action{Kind: Wait, Peer: source, Tag: seq}
				if a := q.step(l, false); a != wait {
					t.Fatalf("n=%d self=%d phase %d: %+v, want %+v", n, self, seq, a, wait)
				}
				heard := append([]uint32(nil), q.hi...)
				q.hi[source] = seq // tags up to seq-1: stale
				for other := range q.hi {
					if other != source {
						q.hi[other] = seq + 5
					}
				}
				if a := q.step(l, false); a != wait {
					t.Fatalf("n=%d self=%d phase %d: stale or foreign tags gave %+v", n, self, seq, a)
				}
				q.hi = heard
				q.hi[source] = seq + 1
			}
		}
	}
}

// TestLoopPeerDown: a phase whose source is down completes without its
// barrier, and the loop goes on posting to the next phase's target.
func TestLoopPeerDown(t *testing.T) {
	s, _ := New(3)
	q := newQueues(3, 1)
	l := s.Loop(0, 8, false)
	q.step(l, false) // post to 1
	q.step(l, false) // barrier 0 to 1
	if a := q.step(l, false); a != (Action{Kind: Wait, Peer: 2, Tag: 0}) {
		t.Fatalf("got %+v, want a wait for source 2", a)
	}
	q.down[2] = true
	if a := q.step(l, false); a != (Action{Kind: Post, Peer: 2, N: 1}) {
		t.Fatalf("after source 2 went down: %+v, want the next phase's post to 2", a)
	}
}

// TestLoopFrozenPostsNothing: a frozen loop waits, for no barrier,
// whatever is queued or heard, and a thawed one resumes where it was.
func TestLoopFrozenPostsNothing(t *testing.T) {
	s, _ := New(4)
	for _, eager := range []bool{false, true} {
		q := newQueues(4, 3)
		l := s.Loop(1, 8, eager)
		for range 5 {
			if a := q.step(l, true); a != (Action{Kind: Wait, Peer: -1}) {
				t.Fatalf("eager=%v: frozen loop gave %+v", eager, a)
			}
		}
		if a := q.step(l, false); a.Kind != Post {
			t.Fatalf("eager=%v: thawed loop gave %+v, want a post", eager, a)
		}
	}
	one, _ := New(1)
	if a := one.Loop(0, 8, false).Step(newQueues(1, 0), false); a != (Action{Kind: Wait, Peer: -1}) {
		t.Fatalf("a single server's loop gave %+v, want a wait", a)
	}
}

// TestLoopIdleRound: a round that moved nothing posts every phase's
// barrier and ends in Idle; a round that moved data goes straight on.
func TestLoopIdleRound(t *testing.T) {
	s, _ := New(4)
	q := newQueues(4, 0)
	q.queued[2] = 1
	l := s.Loop(0, 8, false)
	var kinds []Kind
	for range 3 * s.Phases() {
		for {
			a := q.step(l, false)
			kinds = append(kinds, a.Kind)
			if a.Kind == Wait {
				q.hi[a.Peer] = a.Tag + 1
			}
			if a.Kind == Wait || a.Kind == Idle {
				break
			}
		}
	}
	// Round 1 moves the message to 2 (phase 1); round 2 moves nothing.
	want := []Kind{Barrier, Wait, Post, Barrier, Wait, Barrier, Wait,
		Barrier, Wait, Barrier, Wait, Barrier, Wait, Idle}
	if len(kinds) < len(want) || !equalKinds(kinds[:len(want)], want) {
		t.Fatalf("actions %v, want %v", kinds, want)
	}
}

func equalKinds(a, b []Kind) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestLoopEagerPasses: the eager branch posts one message at a time and
// visits every other destination exactly once per pass; a pass that
// finds nothing queued ends in Idle.
func TestLoopEagerPasses(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s, _ := New(n)
		for self := 0; self < n; self++ {
			q := newQueues(n, 3)
			q.queued[self] = 0
			l := s.Loop(self, 8, true)
			for pass := 0; pass < 3; pass++ {
				seen := make(map[int]bool)
				for range n - 1 {
					a := q.step(l, false)
					if a.Kind != Post || a.N != 1 || a.Peer == self || seen[a.Peer] {
						t.Fatalf("n=%d self=%d pass %d: %+v after %v", n, self, pass, a, seen)
					}
					seen[a.Peer] = true
				}
			}
			if a := q.step(l, false); a != (Action{Kind: Idle, Peer: -1}) {
				t.Fatalf("n=%d self=%d: drained loop gave %+v, want Idle", n, self, a)
			}
		}
	}
}
