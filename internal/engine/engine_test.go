package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

type countSource struct {
	mu   sync.Mutex
	left int
	b    *storage.Batch
}

func (s *countSource) Poll(*Worker) (*storage.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left == 0 {
		return nil, true
	}
	s.left--
	return s.b, false
}

type countSink struct {
	batches   atomic.Int64
	finalized atomic.Int64
	workers   sync.Map
}

func (s *countSink) Consume(w *Worker, b *storage.Batch) {
	s.batches.Add(1)
	s.workers.Store(w.ID, true)
}
func (s *countSink) Finalize() error {
	s.finalized.Add(1)
	return nil
}

func smallBatch() *storage.Batch {
	sch := storage.NewSchema(storage.Field{Name: "x", Type: storage.TInt64})
	b := storage.NewBatch(sch, 1)
	b.AppendRow(int64(1))
	return b
}

func TestAllWorkersParticipate(t *testing.T) {
	e, err := New(Config{Topology: numa.TwoSocket(), Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if e.Workers() != 6 {
		t.Fatalf("workers %d", e.Workers())
	}
	src := &countSource{left: 10000, b: smallBatch()}
	sink := &countSink{}
	if err := e.RunPipeline(&Pipeline{Name: "p", Source: src, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if sink.batches.Load() != 10000 {
		t.Fatalf("consumed %d, want 10000", sink.batches.Load())
	}
	if sink.finalized.Load() != 1 {
		t.Fatal("Finalize must run exactly once")
	}
	n := 0
	sink.workers.Range(func(any, any) bool { n++; return true })
	if n < 2 {
		t.Fatalf("only %d workers participated", n)
	}
}

func TestWorkerSocketAssignment(t *testing.T) {
	e, _ := New(Config{Topology: numa.TwoSocket(), Workers: 4})
	t.Cleanup(e.Close)
	sockets := map[numa.Node]int{}
	for _, w := range e.workers {
		sockets[w.Node]++
	}
	if sockets[0] != 2 || sockets[1] != 2 {
		t.Fatalf("workers unevenly pinned: %v", sockets)
	}
}

func TestCoordinatorOnlySkipped(t *testing.T) {
	e, _ := New(Config{Topology: numa.TwoSocket(), Workers: 2})
	t.Cleanup(e.Close)
	sink := &countSink{}
	p := []*Pipeline{{
		Name:            "coord",
		Source:          &countSource{left: 5, b: smallBatch()},
		Sink:            sink,
		CoordinatorOnly: true,
	}}
	if _, err := e.RunGraph(ChainGraph(p), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if sink.batches.Load() != 0 {
		t.Fatal("coordinator-only pipeline ran on a non-coordinator")
	}
	if _, err := e.RunGraph(ChainGraph(p), RunOptions{Coordinator: true}); err != nil {
		t.Fatal(err)
	}
	if sink.batches.Load() != 5 {
		t.Fatal("coordinator-only pipeline skipped on the coordinator")
	}
}

func TestOpChainShortCircuit(t *testing.T) {
	e, _ := New(Config{Topology: numa.TwoSocket(), Workers: 2})
	t.Cleanup(e.Close)
	sink := &countSink{}
	dropAll := opFunc(func(w *Worker, b *storage.Batch) *storage.Batch { return nil })
	if err := e.RunPipeline(&Pipeline{
		Name:   "drop",
		Source: &countSource{left: 10, b: smallBatch()},
		Ops:    []Op{dropAll},
		Sink:   sink,
	}); err != nil {
		t.Fatal(err)
	}
	if sink.batches.Load() != 0 {
		t.Fatal("sink saw dropped batches")
	}
}

type opFunc func(*Worker, *storage.Batch) *storage.Batch

func (f opFunc) Process(w *Worker, b *storage.Batch) *storage.Batch { return f(w, b) }

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	e, err := New(Config{Topology: numa.TwoSocket()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if e.Workers() != 20 {
		t.Fatalf("default workers %d, want TotalCores=20", e.Workers())
	}
	if e.MorselSize() != DefaultMorselSize {
		t.Fatal("default morsel size wrong")
	}
	if err := e.RunPipeline(&Pipeline{Name: "bad"}); err == nil {
		t.Fatal("pipeline without source/sink accepted")
	}
}
