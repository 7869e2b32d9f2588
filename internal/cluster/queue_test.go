package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hsqp/internal/engine"
)

func waitWaiting(t *testing.T, q *slotQueue, want int) {
	t.Helper()
	waitFor(t, "waiters to queue", func() bool {
		waiting, _ := q.depth()
		return waiting >= want
	})
}

func mustAcquire(t *testing.T, q *slotQueue, name string) *tenant {
	t.Helper()
	slot, err := q.acquire(context.Background(), name)
	if err != nil {
		t.Fatalf("%q acquire: %v", name, err)
	}
	return slot
}

// TestSlotQueueWeightedDispatch pins the stride schedule exactly: with one
// slot held, 8 queued "heavy" (weight 4) and 2 queued "light" (weight 1)
// requests drain in the deterministic order h l h h h h l h h h — the
// weight-4 tenant gets 4× the dispatch share while both queue.
func TestSlotQueueWeightedDispatch(t *testing.T) {
	q := newSlotQueue(1, 256, map[string]int{"heavy": 4, "light": 1, "hold": 1})
	hold := mustAcquire(t, q, "hold")

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(name string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				slot, err := q.acquire(context.Background(), name)
				if err != nil {
					t.Errorf("%s acquire: %v", name, err)
					return
				}
				mu.Lock()
				order = append(order, name[:1])
				mu.Unlock()
				q.release(slot)
			}()
		}
	}
	enqueue("heavy", 8)
	waitWaiting(t, q, 8)
	enqueue("light", 2)
	waitWaiting(t, q, 10)

	q.release(hold)
	wg.Wait()

	got := strings.Join(order, " ")
	want := "h l h h h h l h h h"
	if got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
	if hw, _ := q.load("heavy"); hw != 4 {
		t.Fatalf("heavy weight %d, want 4", hw)
	}
	if lw, _ := q.load("light"); lw != 1 {
		t.Fatalf("light weight %d, want 1", lw)
	}
}

// TestSlotQueueSingleTenantFIFO: with one tenant the weighted-fair queue is
// the FIFO — N queued queries are granted strictly in arrival order.
func TestSlotQueueSingleTenantFIFO(t *testing.T) {
	const n = 16
	q := newSlotQueue(1, n, nil)
	hold := mustAcquire(t, q, "")

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot, err := q.acquire(context.Background(), "")
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			q.release(slot)
		}()
		waitWaiting(t, q, i+1) // fixes the arrival order
	}
	q.release(hold)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want arrival order", order)
		}
	}
}

// TestSlotQueueDirectGrantWhenUncontended: with free slots and nobody
// queued, acquire returns immediately without blocking (and, for a tenant
// the queue already knows, without allocating), and an unconfigured tenant
// leaves nothing behind once its slot is released.
func TestSlotQueueDirectGrantWhenUncontended(t *testing.T) {
	q := newSlotQueue(2, 256, map[string]int{"known": 2})
	a := mustAcquire(t, q, "a")
	b := mustAcquire(t, q, "b")
	q.release(a)
	q.release(b)
	// Released slots are reusable.
	q.release(mustAcquire(t, q, "c"))
	if len(q.tenants) != 2 {
		t.Fatalf("%d tenants remembered after their work finished, want the default and the configured one", len(q.tenants))
	}
	for _, name := range []string{"", "known"} {
		if n := testing.AllocsPerRun(100, func() { q.release(mustAcquire(t, q, name)) }); n != 0 {
			t.Fatalf("uncontended acquire+release for tenant %q allocates %v times, want 0", name, n)
		}
	}
}

// TestSlotQueueQueueBound: a tenant whose queue is full is rejected with
// ErrOverloaded without blocking; other tenants are unaffected.
func TestSlotQueueQueueBound(t *testing.T) {
	q := newSlotQueue(1, 2, nil)
	hold := mustAcquire(t, q, "hold")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if slot, err := q.acquire(context.Background(), "a"); err == nil {
				q.release(slot)
			}
		}()
	}
	waitWaiting(t, q, 2)
	if _, err := q.acquire(context.Background(), "a"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full tenant queue returned %v, want ErrOverloaded", err)
	}
	other := make(chan error, 1)
	go func() {
		slot, err := q.acquire(context.Background(), "b")
		if err == nil {
			q.release(slot)
		}
		other <- err
	}()
	waitWaiting(t, q, 3)
	q.release(hold)
	wg.Wait()
	if err := <-other; err != nil {
		t.Fatalf("tenant b behind a's full queue: %v", err)
	}
}

// TestSlotQueueCancelWhileQueued: cancelling the context abandons the wait
// with engine.ErrCancelled and without leaking the slot.
func TestSlotQueueCancelWhileQueued(t *testing.T) {
	q := newSlotQueue(1, 256, nil)
	hold := mustAcquire(t, q, "hold")
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := q.acquire(ctx, "a")
		got <- err
	}()
	waitWaiting(t, q, 1)
	cancel()
	if err := <-got; !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("cancelled acquire returned %v, want engine.ErrCancelled", err)
	}
	q.release(hold)
	// The slot must be free again despite the cancelled waiter.
	q.release(mustAcquire(t, q, "b"))
}

// TestSlotQueueCancelFreesPlace: a cancelled waiter leaves the queue at
// once — it stops counting against the tenant's bound and its depth, rather
// than holding its place until some later release happens to pop it.
func TestSlotQueueCancelFreesPlace(t *testing.T) {
	q := newSlotQueue(1, 2, nil)
	hold := mustAcquire(t, q, "hold")
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := q.acquire(ctx, "a")
			errs <- err
		}()
	}
	waitWaiting(t, q, 2)
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, engine.ErrCancelled) {
			t.Fatalf("cancelled waiter returned %v, want engine.ErrCancelled", err)
		}
	}

	third := make(chan error, 1)
	go func() {
		slot, err := q.acquire(context.Background(), "a")
		if err == nil {
			q.release(slot)
		}
		third <- err
	}()
	waitWaiting(t, q, 1)
	if _, queued := q.load("a"); queued != 1 {
		t.Fatalf("tenant a depth %d with one live waiter, want 1", queued)
	}
	q.release(hold)
	if err := <-third; err != nil {
		t.Fatalf("third waiter after two cancels: %v (cancelled waiters kept their place)", err)
	}
}

// TestSlotQueueCloseDrains: close fails every queued waiter fast with
// ErrSessionClosed and rejects later acquires.
func TestSlotQueueCloseDrains(t *testing.T) {
	q := newSlotQueue(1, 256, nil)
	hold := mustAcquire(t, q, "hold")
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := q.acquire(context.Background(), "a")
			errs <- err
		}()
	}
	waitWaiting(t, q, 3)
	q.close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("queued waiter got %v, want ErrSessionClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter did not fail fast on close")
		}
	}
	if _, err := q.acquire(context.Background(), "a"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("acquire after close returned %v, want ErrSessionClosed", err)
	}
	q.release(hold) // release after close must not panic
	q.calls.Wait()  // and leaves nothing outstanding
}
