package engine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/storage"
)

// testGate is a Gate opened by hand: open publishes the decision (or its
// failure) and fires the registered wakes.
type testGate struct {
	mu    sync.Mutex
	ready bool
	err   error
	wakes []func()
}

func (g *testGate) Ready() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ready
}

func (g *testGate) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *testGate) AddWake(f func()) {
	g.mu.Lock()
	if !g.ready {
		g.wakes = append(g.wakes, f)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	f()
}

func (g *testGate) open(err error) {
	g.mu.Lock()
	g.ready, g.err = true, err
	wakes := g.wakes
	g.wakes = nil
	g.mu.Unlock()
	for _, f := range wakes {
		f()
	}
}

// pollCounter counts the polls its source receives.
type pollCounter struct {
	Source
	polls atomic.Int64
}

func (s *pollCounter) Poll(w *Worker) (*storage.Batch, bool) {
	s.polls.Add(1)
	return s.Source.Poll(w)
}

// runAsync starts g on e and returns the channel its error arrives on.
func runAsync(e *Engine, g *Graph, opt RunOptions) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := e.RunGraph(g, opt)
		done <- err
	}()
	return done
}

func waitRun(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("gated run did not finish")
		return nil
	}
}

// TestGateHoldsPipeline: no morsel of a gated pipeline is taken before its
// gate opens, while an ungated pipeline of the same run drains; opening
// the gate releases the pipeline.
func TestGateHoldsPipeline(t *testing.T) {
	e := newTestEngine(t, 4)
	gate := &testGate{}
	src := &pollCounter{Source: &countSource{left: 30, b: smallBatch()}}
	gated, free := &countSink{}, &countSink{}
	done := runAsync(e, &Graph{Pipelines: []*Pipeline{
		{Name: "gated", Source: src, Sink: gated, Gate: gate},
		{Name: "free", Source: &countSource{left: 200, b: smallBatch()}, Sink: free},
	}}, RunOptions{Coordinator: true})
	deadline := time.Now().Add(5 * time.Second)
	for free.finalized.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the ungated pipeline did not finish while the gate was closed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if n := src.polls.Load(); n != 0 {
		t.Fatalf("the gated source was polled %d times before its gate opened", n)
	}
	select {
	case err := <-done:
		t.Fatalf("run ended before the gate opened: %v", err)
	default:
	}
	gate.open(nil)
	if err := waitRun(t, done); err != nil {
		t.Fatal(err)
	}
	if gated.batches.Load() != 30 || gated.finalized.Load() != 1 {
		t.Fatalf("gated pipeline consumed %d morsels, finalized %d times", gated.batches.Load(), gated.finalized.Load())
	}
}

// TestGateOpenBeforeRun: a gate already open when RunGraph starts (its
// wake fires inside the scheduler's construction) and gates opening
// concurrently with the run's start do not hold their pipelines.
func TestGateOpenBeforeRun(t *testing.T) {
	e := newTestEngine(t, 2)
	gate := &testGate{}
	gate.open(nil)
	sink := &countSink{}
	if err := waitRun(t, runAsync(e, &Graph{Pipelines: []*Pipeline{
		{Name: "gated", Source: &countSource{left: 10, b: smallBatch()}, Sink: sink, Gate: gate},
	}}, RunOptions{Coordinator: true})); err != nil {
		t.Fatal(err)
	}
	if sink.batches.Load() != 10 {
		t.Fatalf("gated pipeline consumed %d morsels, want 10", sink.batches.Load())
	}
	for i := 0; i < 50; i++ {
		gate := &testGate{}
		go gate.open(nil)
		if err := waitRun(t, runAsync(e, &Graph{Pipelines: []*Pipeline{
			{Name: "gated", Source: &countSource{left: 2, b: smallBatch()}, Sink: &countSink{}, Gate: gate},
		}}, RunOptions{Coordinator: true})); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGateFailureAbortsRun: a failed decision aborts the run with an error
// naming the gated pipeline and the decision's error, and the pipeline
// never takes a morsel.
func TestGateFailureAbortsRun(t *testing.T) {
	e := newTestEngine(t, 2)
	gate := &testGate{}
	src := &pollCounter{Source: &countSource{left: 10, b: smallBatch()}}
	sink := &countSink{}
	done := runAsync(e, &Graph{Pipelines: []*Pipeline{
		{Name: "gated", Source: src, Sink: sink, Gate: gate},
		{Name: "stream", Source: &pollGate{left: 1, b: smallBatch()}, Sink: &countSink{}}, // never released
	}}, RunOptions{Coordinator: true})
	time.Sleep(5 * time.Millisecond)
	gate.open(errors.New("round failed"))
	err := waitRun(t, done)
	if err == nil || !strings.Contains(err.Error(), `pipeline "gated"`) || !strings.Contains(err.Error(), "round failed") {
		t.Fatalf("run error = %v, want the gated pipeline and the round's error", err)
	}
	if src.polls.Load() != 0 || sink.finalized.Load() != 0 {
		t.Fatalf("a failed gate let its pipeline run: %d polls, %d finalizes", src.polls.Load(), sink.finalized.Load())
	}
}

// TestGatedCoordinatorOnlySkipped: a gated coordinator-only pipeline on a
// non-coordinator is skipped without waiting for its gate, and its
// dependents run.
func TestGatedCoordinatorOnlySkipped(t *testing.T) {
	e := newTestEngine(t, 2)
	gate := &testGate{} // never opens
	after := &countSink{}
	done := runAsync(e, ChainGraph([]*Pipeline{
		{Name: "merge", Source: &countSource{}, Sink: &countSink{}, CoordinatorOnly: true, Gate: gate},
		{Name: "after", Source: &countSource{left: 5, b: smallBatch()}, Sink: after},
	}), RunOptions{Coordinator: false})
	if err := waitRun(t, done); err != nil {
		t.Fatal(err)
	}
	if after.batches.Load() != 5 {
		t.Fatalf("the skipped gated pipeline's dependent consumed %d morsels, want 5", after.batches.Load())
	}
}
