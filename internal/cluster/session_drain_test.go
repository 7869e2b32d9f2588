package cluster

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hsqp/internal/storage"
)

// gateAdmission is a test Admission controller whose grants are handed out
// explicitly by the test: Acquire blocks until the test sends on grant (or
// the session cancels the wait), making drain scenarios deterministic.
type gateAdmission struct {
	grant chan struct{}
}

var errGateCancelled = errors.New("gate: cancelled")

func (g *gateAdmission) Acquire(tenant string, cancel <-chan struct{}) (func(), error) {
	select {
	case <-g.grant:
		return func() {}, nil
	case <-cancel:
		return nil, errGateCancelled
	}
}

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

	g := &gateAdmission{grant: make(chan struct{}, 1)}
	s := c.NewSession(SessionConfig{Admission: g})

	type outcome struct {
		stats QueryStats
		err   error
	}
	run := func(ch chan outcome) {
		_, stats, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant("t"))
		ch <- outcome{stats, err}
	}

	// A is granted admission immediately and starts executing.
	g.grant <- struct{}{}
	aCh := make(chan outcome, 1)
	go run(aCh)
	waitFor(t, "query A to start", func() bool { return s.Running() == 1 || len(aCh) == 1 })

	// B and C queue behind the (empty) gate.
	bCh := make(chan outcome, 1)
	cCh := make(chan outcome, 1)
	go run(bCh)
	go run(cCh)
	waitFor(t, "B and C to queue", func() bool { return s.Queued() >= 2 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// Queued queries fail fast with ErrSessionClosed — not the gate's own
	// cancellation error, and without waiting for A.
	for _, ch := range []chan outcome{bCh, cCh} {
		select {
		case out := <-ch:
			if !errors.Is(out.err, ErrSessionClosed) {
				t.Fatalf("queued query returned %v, want ErrSessionClosed", out.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query did not fail fast on Close")
		}
	}

	// The in-flight query completes successfully and Close waits for it.
	select {
	case out := <-aCh:
		if out.err != nil {
			t.Fatalf("in-flight query failed during drain: %v", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query did not complete")
	}
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

// TestSessionCloseFailsFIFOQueue covers the built-in FIFO slot path: queries
// blocked on a full slot channel fail fast with ErrSessionClosed on Close.
func TestSessionCloseFailsFIFOQueue(t *testing.T) {
	orders := testOrders(200)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 4})
	// Occupy the single execution slot by hand so queued queries park
	// deterministically in acquire's select.
	s.slots <- struct{}{}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := s.RunContext(context.Background(), groupByQueryPlan())
			errs <- err
		}()
	}
	waitFor(t, "queries to queue on the slot channel", func() bool { return s.Queued() >= 2 })

	s.Close()
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
	<-s.slots
}

// TestSessionQueueWaitRecorded: a query that had to wait for admission
// reports a non-zero QueueWait, and the timing split adds up to Duration.
func TestSessionQueueWaitRecorded(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	g := &gateAdmission{grant: make(chan struct{})}
	s := c.NewSession(SessionConfig{Admission: g})
	defer s.Close()

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
	g.grant <- struct{}{}
	stats := <-done

	if stats.QueueWait < 10*time.Millisecond {
		t.Fatalf("QueueWait = %v, want >= 10ms of gated wait", stats.QueueWait)
	}
	if stats.Compile <= 0 || stats.Exec <= 0 {
		t.Fatalf("timing split missing: compile=%v exec=%v", stats.Compile, stats.Exec)
	}
	if stats.Duration != stats.Compile+stats.Exec {
		t.Fatalf("Duration %v != Compile %v + Exec %v", stats.Duration, stats.Compile, stats.Exec)
	}
}
