package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"hsqp/internal/engine"
)

// slotQueue decides which query gets the next execution slot of a Session.
// A fixed number of slots is handed out across tenants by stride
// scheduling: every tenant carries a virtual-time pass; granting a tenant's
// query advances its pass by strideScale/weight, and a freed slot goes to
// the waiting tenant with the smallest pass. A weight-4 tenant therefore
// receives 4× the grant share of a weight-1 tenant while both wait, and an
// idle tenant re-joins at the current virtual time instead of cashing in
// its idle period as a burst. Within one tenant queries are granted in
// arrival order, so a session whose queries all carry the same tenant (""
// without WithTenant) is a plain bounded FIFO.
type slotQueue struct {
	mu      sync.Mutex
	slots   int
	free    int // slots nobody holds
	maxQ    int // bound on each tenant's waiters
	tenants map[string]*tenant
	waiting int // waiters across all tenants
	vtime   uint64
	closed  bool

	// closing is closed by close so waiters fail fast with ErrSessionClosed.
	closing chan struct{}
	// calls counts slots held plus queries waiting; Session.Close waits on it.
	calls sync.WaitGroup
}

const strideScale = 1 << 20

type tenant struct {
	name   string
	weight int
	stride uint64
	pass   uint64
	// keep marks a configured tenant (and the default ""): its weight is
	// settings, not client input, so it is never forgotten.
	keep    bool
	running int
	// queue holds one channel per waiting query, in arrival order. Each is
	// buffered so the single grant it receives never blocks the granter.
	queue []chan struct{}
}

func newSlotQueue(slots, maxQueued int, weights map[string]int) *slotQueue {
	q := &slotQueue{
		slots:   slots,
		free:    slots,
		maxQ:    maxQueued,
		tenants: map[string]*tenant{},
		closing: make(chan struct{}),
	}
	q.tenantLocked("").keep = true
	for name, w := range weights {
		t := q.tenantLocked(name)
		t.keep = true
		if w > 1 {
			t.weight, t.stride = w, strideScale/uint64(w)
		}
	}
	return q
}

// tenantLocked returns the tenant's state, creating an unconfigured one
// with weight 1 at the current virtual time.
func (q *slotQueue) tenantLocked(name string) *tenant {
	t, ok := q.tenants[name]
	if !ok {
		t = &tenant{name: name, weight: 1, stride: strideScale, pass: q.vtime}
		q.tenants[name] = t
	}
	return t
}

// forgetLocked drops an unconfigured tenant that has neither a waiter nor a
// running query, so tenant names (client input on the serving path) pin
// nothing once their work is done. It would re-join at the current virtual
// time anyway.
func (q *slotQueue) forgetLocked(t *tenant) {
	if !t.keep && t.running == 0 && len(t.queue) == 0 {
		delete(q.tenants, t.name)
	}
}

// acquire blocks until the tenant is granted an execution slot, ctx is
// cancelled, or the queue closes. The returned tenant must be handed to
// release exactly once. A tenant whose queue is at its bound is rejected
// with ErrOverloaded without waiting; a cancel while queued surfaces the
// same sentinel as a cancel during execution, so
// errors.Is(err, engine.ErrCancelled) holds whichever phase it raced with.
func (q *slotQueue) acquire(ctx context.Context, name string) (*tenant, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrSessionClosed
	}
	t := q.tenantLocked(name)
	if q.free > 0 && q.waiting == 0 {
		// Uncontended: take a slot directly, charging the tenant's pass so
		// the share accounting stays truthful when contention starts.
		q.free--
		q.grantLocked(t)
		q.calls.Add(1)
		q.mu.Unlock()
		return t, nil
	}
	if len(t.queue) >= q.maxQ {
		q.mu.Unlock()
		return nil, ErrOverloaded
	}
	// Joining the queue from idle resets the pass to the current virtual
	// time (no bursting on stale credit).
	if len(t.queue) == 0 && t.pass < q.vtime {
		t.pass = q.vtime
	}
	w := make(chan struct{}, 1)
	t.queue = append(t.queue, w)
	q.waiting++
	q.calls.Add(1)
	q.mu.Unlock()

	var err error
	select {
	case <-w:
		return t, nil
	case <-ctx.Done():
		err = fmt.Errorf("cluster: query cancelled while queued: %w", engine.ErrCancelled)
	case <-q.closing:
		err = ErrSessionClosed
	}
	if q.abandon(t, w) {
		q.calls.Done()
	} else {
		// A grant raced the cancel: pass the slot on instead of leaking it.
		q.release(t)
	}
	return nil, err
}

// abandon removes a waiter that gave up, so it stops counting against the
// tenant's bound. It reports false when the waiter is no longer queued,
// which under q.mu means it was granted a slot.
func (q *slotQueue) abandon(t *tenant, w chan struct{}) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(t.queue, w)
	if i < 0 {
		return false
	}
	t.queue = slices.Delete(t.queue, i, i+1)
	q.waiting--
	q.forgetLocked(t)
	return true
}

// release returns a slot: it goes to the waiting tenant with the smallest
// pass (ties broken by name for determinism), or back to the free count.
// The grant is decided under the lock and signalled outside it.
func (q *slotQueue) release(t *tenant) {
	q.mu.Lock()
	t.running--
	var w chan struct{}
	if q.waiting == 0 {
		q.free++
	} else {
		var best *tenant
		for _, c := range q.tenants {
			if len(c.queue) > 0 && (best == nil || c.pass < best.pass || (c.pass == best.pass && c.name < best.name)) {
				best = c
			}
		}
		w = best.queue[0]
		best.queue = best.queue[1:]
		q.waiting--
		q.grantLocked(best)
	}
	q.forgetLocked(t)
	q.mu.Unlock()
	if w != nil {
		w <- struct{}{}
	}
	q.calls.Done()
}

func (q *slotQueue) grantLocked(t *tenant) {
	t.running++
	t.pass += t.stride
	q.vtime = t.pass
}

// close fails every waiter fast with ErrSessionClosed and rejects later
// acquires. Slots already granted are released normally.
func (q *slotQueue) close() {
	q.mu.Lock()
	already := q.closed
	q.closed = true
	q.mu.Unlock()
	if !already {
		close(q.closing)
	}
}

// depth reports how many queries are waiting and how many hold a slot.
func (q *slotQueue) depth() (waiting, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting, q.slots - q.free
}

// load reports a tenant's weight and how many of its queries are waiting.
func (q *slotQueue) load(name string) (weight, queued int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[name]; ok {
		return t.weight, len(t.queue)
	}
	return 1, 0
}
