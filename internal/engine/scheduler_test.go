package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// guardedSource fails the run (via a recorded flag) when pulled before an
// upstream gate opened — used to prove build-before-probe ordering.
type guardedSource struct {
	inner    Source
	gate     *atomic.Bool
	violated atomic.Bool
}

func (s *guardedSource) Poll(w *Worker) (*storage.Batch, bool) {
	if !s.gate.Load() {
		s.violated.Store(true)
	}
	return s.inner.Poll(w)
}

// gateSink flips a gate on Finalize.
type gateSink struct {
	countSink
	gate *atomic.Bool
}

func (s *gateSink) Finalize() error {
	s.gate.Store(true)
	return s.countSink.Finalize()
}

func newTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e, err := New(Config{Topology: numa.TwoSocket(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestDAGDependencyOrdering: a dependent pipeline (probe) must not pull a
// single morsel before its dependency (build) finalized its sink.
func TestDAGDependencyOrdering(t *testing.T) {
	e := newTestEngine(t, 6)
	for round := 0; round < 20; round++ {
		var gate atomic.Bool
		build := &Pipeline{
			Name:   "build",
			Source: &countSource{left: 50, b: smallBatch()},
			Sink:   &gateSink{gate: &gate},
		}
		probeSrc := &guardedSource{inner: &countSource{left: 50, b: smallBatch()}, gate: &gate}
		probeSink := &countSink{}
		probe := &Pipeline{Name: "probe", Source: probeSrc, Sink: probeSink}
		_, err := e.RunGraph(&Graph{
			Pipelines: []*Pipeline{build, probe},
			Deps:      [][]int{nil, {0}},
		}, RunOptions{Coordinator: true})
		if err != nil {
			t.Fatal(err)
		}
		if probeSrc.violated.Load() {
			t.Fatal("probe pipeline pulled a morsel before build finalized")
		}
		if probeSink.batches.Load() != 50 {
			t.Fatalf("probe consumed %d, want 50", probeSink.batches.Load())
		}
	}
}

// TestSkippedPipelineKeepsChainOrder: on a non-coordinator a
// coordinator-only pipeline is skipped, but what depends on it still waits
// for what it depended on — a ChainGraph stays in order across the gap.
func TestSkippedPipelineKeepsChainOrder(t *testing.T) {
	e := newTestEngine(t, 6)
	for round := 0; round < 20; round++ {
		var gate atomic.Bool
		first := &Pipeline{
			Name:   "first",
			Source: &countSource{left: 50, b: smallBatch()},
			Sink:   &gateSink{gate: &gate},
		}
		merge := &Pipeline{Name: "merge", Source: &countSource{}, Sink: &countSink{}, CoordinatorOnly: true}
		lastSrc := &guardedSource{inner: &countSource{left: 5, b: smallBatch()}, gate: &gate}
		last := &Pipeline{Name: "last", Source: lastSrc, Sink: &countSink{}}
		stats, err := e.RunGraph(ChainGraph([]*Pipeline{first, merge, last}), RunOptions{Coordinator: false})
		if err != nil {
			t.Fatal(err)
		}
		if !stats[1].Skipped {
			t.Fatal("coordinator-only pipeline ran on a non-coordinator")
		}
		if lastSrc.violated.Load() {
			t.Fatal("pipeline after the skipped one started before the pipeline before it finalized")
		}
	}
}

// socketSource hands out morsels only to (or preferentially reports local
// work for) one socket, to steer the scheduler's first-pass choice.
type socketSource struct {
	mu   sync.Mutex
	left int
	node numa.Node
	b    *storage.Batch
}

func (s *socketSource) Poll(*Worker) (*storage.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left == 0 {
		return nil, true
	}
	s.left--
	return s.b, false
}

func (s *socketSource) HasLocal(node numa.Node) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.left > 0 && node == s.node
}

// TestCrossPipelineWorkStealing: two concurrent pipelines, each advertising
// NUMA-local work for only one socket. The socket-1 pipeline is tiny, so
// socket-1 workers go dry and must steal work from the other *pipeline* to
// finish the run.
func TestCrossPipelineWorkStealing(t *testing.T) {
	e := newTestEngine(t, 4) // 2 per socket on TwoSocket
	big := &socketSource{left: 4000, node: 0, b: smallBatch()}
	small := &socketSource{left: 4, node: 1, b: smallBatch()}
	bigSink := &countSink{}
	smallSink := &countSink{}
	_, err := e.RunGraph(&Graph{Pipelines: []*Pipeline{
		{Name: "big", Source: big, Sink: bigSink},
		{Name: "small", Source: small, Sink: smallSink},
	}}, RunOptions{Coordinator: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := bigSink.batches.Load() + smallSink.batches.Load(); got != 4004 {
		t.Fatalf("consumed %d morsels, want 4004", got)
	}
	workers := 0
	bigSink.workers.Range(func(any, any) bool { workers++; return true })
	if workers < 3 {
		t.Fatalf("big pipeline processed by %d workers; want socket-1 workers to steal in (≥3)", workers)
	}
}

// TestWorkerPanicReturnsError: a panicking operator must surface as an
// error naming the pipeline, not kill the process.
func TestWorkerPanicReturnsError(t *testing.T) {
	e := newTestEngine(t, 4)
	boom := opFunc(func(w *Worker, b *storage.Batch) *storage.Batch {
		w.PushCol(storage.TInt64, 8)
		w.PushI32(8)
		panic("kaboom")
	})
	err := e.RunPipeline(&Pipeline{
		Name:   "explosive",
		Source: &countSource{left: 100, b: smallBatch()},
		Ops:    []Op{boom},
		Sink:   &countSink{},
	})
	if err == nil {
		t.Fatal("panic was swallowed")
	}
	if !strings.Contains(err.Error(), "explosive") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error %q does not name the pipeline and panic", err)
	}
	// The pool must survive for the next run, with the scratch the panicking
	// operator pushed dropped.
	sink := &countSink{}
	var leftover atomic.Int64
	depth := opFunc(func(w *Worker, b *storage.Batch) *storage.Batch {
		leftover.Add(int64(w.nCol + w.n32))
		return b
	})
	if err := e.RunPipeline(&Pipeline{Name: "after", Source: &countSource{left: 10, b: smallBatch()}, Ops: []Op{depth}, Sink: sink}); err != nil {
		t.Fatalf("pool broken after panic: %v", err)
	}
	if leftover.Load() != 0 {
		t.Fatalf("workers kept %d scratch vectors a panicking operator pushed", leftover.Load())
	}
	if sink.batches.Load() != 10 {
		t.Fatalf("post-panic run consumed %d, want 10", sink.batches.Load())
	}
}

// TestFinalizePanicReturnsError: panics in Sink.Finalize are captured too.
func TestFinalizePanicReturnsError(t *testing.T) {
	e := newTestEngine(t, 2)
	err := e.RunPipeline(&Pipeline{
		Name:   "final-boom",
		Source: &countSource{left: 5, b: smallBatch()},
		Sink:   &panicSink{},
	})
	if err == nil || !strings.Contains(err.Error(), "final-boom") {
		t.Fatalf("finalize panic not reported: %v", err)
	}
}

type panicSink struct{ countSink }

func (s *panicSink) Finalize() error { panic("finalize kaboom") }

// pollGate is a Source that stays pending until released, then yields
// its morsels — a stand-in for an exchange receive.
type pollGate struct {
	mu       sync.Mutex
	released bool
	left     int
	b        *storage.Batch
	wake     func()
}

func (s *pollGate) Poll(*Worker) (*storage.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.released {
		return nil, false
	}
	if s.left == 0 {
		return nil, true
	}
	s.left--
	return s.b, false
}

func (s *pollGate) SetWake(f func()) {
	s.mu.Lock()
	s.wake = f
	s.mu.Unlock()
}

func (s *pollGate) release() {
	s.mu.Lock()
	s.released = true
	f := s.wake
	s.mu.Unlock()
	if f != nil {
		f()
	}
}

// TestStreamingSourceOverlap: a pending streaming pipeline must not stall
// the run — a compute pipeline proceeds, and when input arrives the
// streaming pipeline drains and finalizes.
func TestStreamingSourceOverlap(t *testing.T) {
	e := newTestEngine(t, 4)
	gate := &pollGate{left: 20, b: smallBatch()}
	computeSink := &countSink{}
	streamSink := &countSink{}
	go func() {
		time.Sleep(2 * time.Millisecond)
		gate.release()
	}()
	stats, err := e.RunGraph(&Graph{Pipelines: []*Pipeline{
		{Name: "stream", Source: gate, Sink: streamSink},
		{Name: "compute", Source: &countSource{left: 3000, b: smallBatch()}, Sink: computeSink},
	}}, RunOptions{Coordinator: true})
	if err != nil {
		t.Fatal(err)
	}
	if streamSink.batches.Load() != 20 || computeSink.batches.Load() != 3000 {
		t.Fatalf("consumed stream=%d compute=%d", streamSink.batches.Load(), computeSink.batches.Load())
	}
	if streamSink.finalized.Load() != 1 {
		t.Fatal("streaming pipeline did not finalize exactly once")
	}
	for _, st := range stats {
		if st.Morsels == 0 {
			t.Fatalf("pipeline %s reported zero morsels", st.Name)
		}
	}
}

// TestGraphValidation rejects malformed graphs.
func TestGraphValidation(t *testing.T) {
	p := &Pipeline{Name: "p", Source: &countSource{}, Sink: &countSink{}}
	if err := (&Graph{Pipelines: []*Pipeline{p, p}, Deps: [][]int{{1}, {0}}}).Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
	if err := (&Graph{Pipelines: []*Pipeline{p}, Deps: [][]int{{3}}}).Validate(); err == nil {
		t.Fatal("out-of-range dep accepted")
	}
	if err := (&Graph{Pipelines: []*Pipeline{p}, Deps: [][]int{{0}}}).Validate(); err == nil {
		t.Fatal("self dep accepted")
	}
	if err := (&Graph{Pipelines: []*Pipeline{p, p}, Deps: [][]int{nil, {0}}}).Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

// TestOverlapRatio checks the interval sweep.
func TestOverlapRatio(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	serial := []PipelineStat{
		{Name: "a", Start: ms(0), End: ms(10), Morsels: 1},
		{Name: "b", Start: ms(10), End: ms(20), Morsels: 1},
	}
	if r := OverlapRatio(serial); r != 0 {
		t.Fatalf("serial overlap %v, want 0", r)
	}
	full := []PipelineStat{
		{Name: "a", Start: ms(0), End: ms(10), Morsels: 1},
		{Name: "b", Start: ms(0), End: ms(10), Morsels: 1},
	}
	if r := OverlapRatio(full); r != 1 {
		t.Fatalf("full overlap %v, want 1", r)
	}
	half := []PipelineStat{
		{Name: "a", Start: ms(0), End: ms(10), Morsels: 1},
		{Name: "b", Start: ms(5), End: ms(15), Morsels: 1},
	}
	if r := OverlapRatio(half); r < 0.32 || r > 0.34 {
		t.Fatalf("partial overlap %v, want ~1/3", r)
	}
	skippedOnly := []PipelineStat{{Name: "s", Skipped: true}}
	if r := OverlapRatio(skippedOnly); r != 0 {
		t.Fatalf("skipped-only overlap %v, want 0", r)
	}
}

// TestPeakConcurrency: true simultaneous depth, not pairwise overlap —
// A=[0,10] overlaps B=[1,2] and C=[8,9], but B and C never run together,
// so the peak is 2, not 3.
func TestPeakConcurrency(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	stats := []PipelineStat{
		{Name: "a", Start: ms(0), End: ms(10), Morsels: 1},
		{Name: "b", Start: ms(1), End: ms(2), Morsels: 1},
		{Name: "c", Start: ms(8), End: ms(9), Morsels: 1},
	}
	if p := PeakConcurrency(stats); p != 2 {
		t.Fatalf("peak %d, want 2 (pairwise overlap must not inflate the depth)", p)
	}
	serial := []PipelineStat{
		{Name: "a", Start: ms(0), End: ms(5), Morsels: 1},
		{Name: "b", Start: ms(5), End: ms(10), Morsels: 1},
	}
	if p := PeakConcurrency(serial); p != 1 {
		t.Fatalf("back-to-back pipelines reported peak %d, want 1", p)
	}
	if p := PeakConcurrency(nil); p != 0 {
		t.Fatalf("empty stats peak %d, want 0", p)
	}
}

// TestCancelAbortsRun: closing the cancel channel ends a run whose
// streaming source never delivers.
func TestCancelAbortsRun(t *testing.T) {
	e := newTestEngine(t, 2)
	cancel := make(chan struct{})
	gate := &pollGate{left: 1, b: smallBatch()} // never released
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(cancel)
	}()
	done := make(chan error, 1)
	go func() {
		_, err := e.RunGraph(&Graph{Pipelines: []*Pipeline{
			{Name: "starved", Source: gate, Sink: &countSink{}},
		}}, RunOptions{Coordinator: true, Cancel: cancel})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the run")
	}
}

// TestPipelineStatsAccounting: wall intervals nest inside the run and busy
// time accumulates.
func TestPipelineStatsAccounting(t *testing.T) {
	e := newTestEngine(t, 4)
	slow := opFunc(func(w *Worker, b *storage.Batch) *storage.Batch {
		time.Sleep(50 * time.Microsecond)
		return b
	})
	stats, err := e.RunGraph(&Graph{Pipelines: []*Pipeline{
		{Name: "p", Source: &countSource{left: 40, b: smallBatch()}, Ops: []Op{slow}, Sink: &countSink{}},
	}}, RunOptions{Coordinator: true})
	if err != nil {
		t.Fatal(err)
	}
	st := stats[0]
	if st.Morsels != 40 {
		t.Fatalf("morsels %d, want 40", st.Morsels)
	}
	if st.Busy < 40*50*time.Microsecond {
		t.Fatalf("busy %v too small", st.Busy)
	}
	if st.End <= st.Start && st.Morsels > 0 {
		t.Fatalf("empty wall interval [%v,%v]", st.Start, st.End)
	}
}

func ExampleChainGraph() {
	g := ChainGraph([]*Pipeline{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	fmt.Println(g.Deps)
	// Output: [[] [0] [1]]
}
