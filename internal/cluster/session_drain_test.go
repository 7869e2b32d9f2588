package cluster

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestSessionCloseDrain pins the drain contract: Close lets the in-flight
// query run to completion, fails every queued query fast with
// ErrSessionClosed, rejects new Run calls, and leaks no goroutines.
func TestSessionCloseDrain(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	// Warm up once so any lazily-started engine goroutines are excluded
	// from the leak baseline.
	if _, _, err := c.RunContext(context.Background(), groupByQueryPlan()); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	baseline := runtime.NumGoroutine()

	s := c.NewSession(SessionConfig{MaxConcurrent: 1, Tenants: map[string]int{"t": 2}})

	// A takes the only slot straight from the queue, exactly as RunContext
	// would, so it stays in flight until the test lets it finish.
	slotA := mustAcquire(t, s.q, "t")

	// B and C queue behind it.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant("t"))
			errs <- err
		}()
	}
	waitFor(t, "B and C to queue", func() bool { return s.Queued() == 2 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// Queued queries fail fast with ErrSessionClosed, without waiting for A.
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("queued query returned %v, want ErrSessionClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query did not fail fast on Close")
		}
	}

	// The in-flight query completes successfully and Close waits for it.
	if _, _, err := c.RunContext(context.Background(), groupByQueryPlan()); err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a query still held its slot")
	default:
	}
	s.q.release(slotA)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}

	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Run after Close returned %v, want ErrSessionClosed", err)
	}
	if s.Queued() != 0 || s.Running() != 0 {
		t.Fatalf("counters after drain: queued=%d running=%d, want 0/0", s.Queued(), s.Running())
	}

	// No goroutine leak: everything the session spawned must be gone.
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestSessionCloseFailsFIFOQueue covers the untenanted FIFO case: queries
// waiting behind a busy slot fail fast with ErrSessionClosed on Close.
func TestSessionCloseFailsFIFOQueue(t *testing.T) {
	orders := testOrders(200)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 4})
	// Occupy the single execution slot by hand so queued queries park
	// deterministically in the queue.
	hold := mustAcquire(t, s.q, "")

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := s.RunContext(context.Background(), groupByQueryPlan())
			errs <- err
		}()
	}
	waitFor(t, "queries to queue behind the held slot", func() bool { return s.Queued() >= 2 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("queued query returned %v, want ErrSessionClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query did not fail fast on Close")
		}
	}
	s.q.release(hold)
	<-closed
}

// TestSessionQueueWaitRecorded: a query that had to wait for admission
// reports a non-zero QueueWait, and the timing split adds up to Duration.
func TestSessionQueueWaitRecorded(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 1})
	defer s.Close()
	hold := mustAcquire(t, s.q, "")

	done := make(chan QueryStats, 1)
	go func() {
		_, stats, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant("t"))
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- stats
	}()
	waitFor(t, "query to queue", func() bool { return s.Queued() == 1 })
	time.Sleep(20 * time.Millisecond) // measurable admission wait
	s.q.release(hold)
	stats := <-done

	if stats.QueueWait < 10*time.Millisecond {
		t.Fatalf("QueueWait = %v, want >= 10ms of queued wait", stats.QueueWait)
	}
	if stats.Compile <= 0 || stats.Exec <= 0 {
		t.Fatalf("timing split missing: compile=%v exec=%v", stats.Compile, stats.Exec)
	}
	if stats.Duration != stats.Compile+stats.Exec {
		t.Fatalf("Duration %v != Compile %v + Exec %v", stats.Duration, stats.Compile, stats.Exec)
	}
}

// TestSessionCancelWhileQueued: a context cancelled while the query waits
// for a slot surfaces engine.ErrCancelled — the sentinel a cancel during
// execution surfaces — for an untenanted session and for one configured
// the way the serving tier configures it.
func TestSessionCancelWhileQueued(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", testOrders(200), storage.PlacementChunked, 0)

	for _, tc := range []struct {
		name string
		cfg  SessionConfig
		opts []RunOption
	}{
		{"fifo", SessionConfig{MaxConcurrent: 1}, nil},
		{"served", SessionConfig{MaxConcurrent: 1, MaxQueued: 256, Tenants: map[string]int{"heavy": 4}}, []RunOption{WithTenant("light")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := c.NewSession(tc.cfg)
			defer s.Close()
			hold := mustAcquire(t, s.q, "")
			defer s.q.release(hold)

			ctx, cancel := context.WithCancel(context.Background())
			got := make(chan error, 1)
			go func() {
				_, _, err := s.RunContext(ctx, groupByQueryPlan(), tc.opts...)
				got <- err
			}()
			waitFor(t, "query to queue", func() bool { return s.Queued() == 1 })
			cancel()
			if err := <-got; !errors.Is(err, engine.ErrCancelled) {
				t.Fatalf("cancel while queued returned %v, want engine.ErrCancelled", err)
			}
			if s.Queued() != 0 {
				t.Fatalf("cancelled query still queued: %d", s.Queued())
			}
		})
	}
}
