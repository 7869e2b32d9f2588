package engine

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// TestConcurrentGraphsShareThePool runs many graphs on one engine at the
// same time: every run must consume exactly its own morsels and finalize
// its own sink exactly once — queries sharing the pool must not leak work
// into each other.
func TestConcurrentGraphsShareThePool(t *testing.T) {
	e := newTestEngine(t, 6)
	const runs = 8
	const morsels = 2000

	srcs := make([]*countSource, runs)
	sinks := make([]*countSink, runs)
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for r := 0; r < runs; r++ {
		srcs[r] = &countSource{left: morsels, b: smallBatch()}
		sinks[r] = &countSink{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = e.RunPipeline(&Pipeline{Name: "p", Source: srcs[r], Sink: sinks[r]})
		}(r)
	}
	wg.Wait()
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if got := sinks[r].batches.Load(); got != morsels {
			t.Fatalf("run %d consumed %d morsels, want %d", r, got, morsels)
		}
		if sinks[r].finalized.Load() != 1 {
			t.Fatalf("run %d finalized %d times", r, sinks[r].finalized.Load())
		}
	}
}

// TestFairDispatchAcrossQueries: a short query submitted while a long
// query is running must not starve behind it — round-robin morsel
// dispatch interleaves the two, so the short one finishes first.
func TestFairDispatchAcrossQueries(t *testing.T) {
	e := newTestEngine(t, 4)

	longSrc := &countSource{left: 400000, b: smallBatch()}
	var longDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.RunPipeline(&Pipeline{Name: "long", Source: longSrc, Sink: &countSink{}}); err != nil {
			t.Errorf("long run: %v", err)
		}
		longDone.Store(true)
	}()

	// Wait until the long query is actually consuming morsels.
	for {
		longSrc.mu.Lock()
		started := longSrc.left < 400000
		longSrc.mu.Unlock()
		if started {
			break
		}
		runtime.Gosched()
	}
	if err := e.RunPipeline(&Pipeline{Name: "short", Source: &countSource{left: 100, b: smallBatch()}, Sink: &countSink{}}); err != nil {
		t.Fatalf("short run: %v", err)
	}
	if longDone.Load() {
		t.Fatal("short query finished only after the long query drained: dispatch is not fair")
	}
	wg.Wait()
}

// TestErrorIsolationBetweenRuns: a panicking operator aborts its own run
// with a named error while a concurrently executing run completes
// untouched.
func TestErrorIsolationBetweenRuns(t *testing.T) {
	e := newTestEngine(t, 4)

	goodSrc := &countSource{left: 50000, b: smallBatch()}
	goodSink := &countSink{}
	var wg sync.WaitGroup
	var goodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		goodErr = e.RunPipeline(&Pipeline{Name: "good", Source: goodSrc, Sink: goodSink})
	}()

	badErr := e.RunPipeline(&Pipeline{
		Name:   "bad",
		Source: &countSource{left: 10, b: smallBatch()},
		Ops:    []Op{opFunc(func(w *Worker, b *storage.Batch) *storage.Batch { panic("boom") })},
		Sink:   &countSink{},
	})
	if badErr == nil || !strings.Contains(badErr.Error(), `pipeline "bad"`) {
		t.Fatalf("bad run error = %v, want panic naming the pipeline", badErr)
	}

	wg.Wait()
	if goodErr != nil {
		t.Fatalf("good run failed alongside the bad one: %v", goodErr)
	}
	if goodSink.batches.Load() != 50000 {
		t.Fatalf("good run consumed %d morsels, want 50000", goodSink.batches.Load())
	}
}

// blockedSource never yields and never reports done — it models an
// exchange receive whose senders have gone away.
type blockedSource struct{}

func (blockedSource) Poll(*Worker) (*storage.Batch, bool) { return nil, false }
func (blockedSource) SetWake(func(bool))                  {}

// TestCloseAbortsActiveRuns: closing the engine while a graph is still
// waiting for input must abort the run (ErrCancelled) instead of leaving
// RunGraph blocked forever on a pool with no workers.
func TestCloseAbortsActiveRuns(t *testing.T) {
	e, err := New(Config{Topology: numa.TwoSocket(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- e.RunPipeline(&Pipeline{Name: "stuck", Source: blockedSource{}, Sink: &countSink{}})
	}()
	// Let the run attach before closing.
	for {
		e.mu.Lock()
		attached := len(e.runs) > 0
		e.mu.Unlock()
		if attached {
			break
		}
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("aborted run returned %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunGraph still blocked 10s after Engine.Close")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Engine.Close did not return")
	}
}
