// Package engine implements intra-server morsel-driven parallelism
// (Leis et al. [20], §3.2 of the paper): query pipelines are executed by a
// persistent pool of workers pinned (logically) to NUMA sockets; the input
// of a pipeline is split into constant-size morsels; workers prefer
// NUMA-local morsels and steal across sockets — and across pipelines —
// when their own node runs dry. Each worker pushes its morsel through the
// whole pipeline until a pipeline breaker (sink) is reached, keeping
// intermediate data hot.
//
// Pipelines are organized into a Graph: explicit dependency edges
// (build-before-probe, materialize-before-consume, and a cluster-wide
// decision's round before whatever routes by it) decide when a pipeline
// becomes runnable, and a Scheduler dispatches morsels from *all*
// runnable pipelines to idle workers. Every Source only polls: a source
// that streams from the network answers "nothing yet" instead of
// blocking, so a pipeline with no input parks without holding a worker,
// which is what lets exchange-receive pipelines overlap with upstream
// compute (hybrid parallelism, §3).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// DefaultMorselSize is the number of tuples per morsel.
const DefaultMorselSize = 16384

// ErrCancelled is returned by RunGraph when the run's RunOptions.Context
// was cancelled before it completed. (No "engine:" prefix — results()
// adds it when wrapping.)
var ErrCancelled = errors.New("run cancelled")

// Worker identifies one worker thread and its NUMA placement.
type Worker struct {
	ID   int
	Node numa.Node

	// hashes is the key-hash vector of the batch the worker is processing.
	// It lives here, not on an operator, so one vector per pool worker
	// serves every morsel of every query; so do the scratch stacks.
	hashes []uint32
	// cols and i32 are stacks of scratch vectors for batch kernels: an
	// expression's intermediate operands, an aggregate's arguments, a
	// selection, an aggregation's group ids, a group-join's match list.
	// nCol and n32 are their depths.
	cols []*storage.Column
	i32  [][]int32
	nCol int
	n32  int
	// pool is the engine's column pool (nil for a bare &Worker{}).
	pool *colPool
}

// HashRows returns storage.HashRows(b, keys) in the worker's own vector:
// the result is valid until the worker's next HashRows call, which is why
// operators consume it before they return. A nil worker (operators driven
// directly by a test) gets a fresh slice.
func (w *Worker) HashRows(b *storage.Batch, keys []int) []uint32 {
	if w == nil {
		return storage.HashRows(b, keys, nil)
	}
	w.hashes = storage.HashRows(b, keys, w.hashes)
	return w.hashes
}

// PushCol returns a non-nullable column of type t with n values on top of
// the worker's scratch stack: an expression kernel's intermediate operand,
// an aggregate's argument vector. Its values are stale. It is the caller's
// until the matching PopCol, and a kernel pops what it pushed before it
// returns, so the stack is only as deep as the deepest expression. A nil
// worker gets a fresh column.
func (w *Worker) PushCol(t storage.Type, n int) *storage.Column {
	if w == nil {
		c := &storage.Column{Type: t}
		c.SetLen(n)
		return c
	}
	if w.nCol == len(w.cols) {
		w.cols = append(w.cols, &storage.Column{})
	}
	c := w.cols[w.nCol]
	w.nCol++
	c.Type, c.Nullable = t, false
	c.SetLen(n)
	return c
}

// PopCol pops the top of the column scratch stack.
func (w *Worker) PopCol() {
	if w != nil {
		w.nCol--
	}
}

// PushI32 returns an empty int32 vector with room for n values on top of
// the worker's scratch stack: a selection, a group-id vector, a match
// list. A nil worker gets a fresh vector.
func (w *Worker) PushI32(n int) []int32 {
	if w == nil {
		return make([]int32, 0, n)
	}
	if w.n32 == len(w.i32) {
		w.i32 = append(w.i32, nil)
	}
	if cap(w.i32[w.n32]) < n {
		w.i32[w.n32] = make([]int32, 0, n+n/4)
	}
	w.n32++
	return w.i32[w.n32-1][:0]
}

// PopI32 pops the top of the int32 scratch stack. v is the vector as the
// caller left it: when appending outgrew the room PushI32 gave, the stack
// keeps the larger array for the next push.
func (w *Worker) PopI32(v []int32) {
	if w == nil {
		return
	}
	w.n32--
	if cap(v) > cap(w.i32[w.n32]) {
		w.i32[w.n32] = v
	}
}

// Source produces morsels for a pipeline. Implementations must be safe for
// concurrent use and must never block: Poll returns (b, false) with a
// morsel, (nil, false) when no input is available yet (try again later),
// and (nil, true) once the source is drained for good.
type Source interface {
	Poll(w *Worker) (b *storage.Batch, done bool)
}

// WakeSource is implemented by sources whose input arrives asynchronously
// (exchange receives). The source calls the f that SetWake registers
// whenever new input may be available, so workers sleep instead of
// spinning: f(false) rouses one worker, f(true) all of them, which a
// delivery only one specific worker can consume needs (classic exchanges).
type WakeSource interface {
	SetWake(f func(all bool))
}

// LocalityHinter lets a source advertise whether it still holds
// NUMA-local work for a socket. The scheduler prefers pipelines with local
// morsels and falls back to remote ones (socket stealing) when dry.
type LocalityHinter interface {
	HasLocal(node numa.Node) bool
}

// FallibleSource is a Source that can fail mid-stream (an exchange receive
// hitting a corrupt message). Such a source reports exhaustion through the
// normal Poll protocol and records the cause; the scheduler checks
// Err when the source drains and aborts the run with the pipeline's name
// instead of relying on panic recovery.
type FallibleSource interface {
	Err() error
}

// WorkerFinalizer is a Sink whose Finalize needs to know which pool worker
// runs it — send-side exchanges allocate their flush and Last-marker
// buffers NUMA-local to the finalizing worker instead of defaulting to
// socket 0. The scheduler prefers FinalizeOn over Finalize when
// implemented.
type WorkerFinalizer interface {
	FinalizeOn(w *Worker) error
}

// Op transforms one morsel batch. It may return its input unchanged, a new
// batch, or nil (all rows filtered). Implementations must be safe for
// concurrent use by distinct workers.
type Op interface {
	Process(w *Worker, b *storage.Batch) *storage.Batch
}

// NamedOp lets an operator or sink pick its display name in explain
// analyze output; the default is the lower-cased Go type name.
type NamedOp interface {
	OpName() string
}

// AllocCounter is implemented by operators that track their own batch
// materializations (scratch-pooling operators report only true
// allocations). Without it, the scheduler counts every returned batch
// that is not the input batch as one materialization.
type AllocCounter interface {
	BatchAllocs() uint64
}

// SinkStats is implemented by sinks that can report what they absorbed:
// total rows and, for exchange sends, the exact bytes they put on the
// wire. The scheduler surfaces both in PipelineStat.
type SinkStats interface {
	SinkStats() (rows, bytes uint64)
}

// Sink is a pipeline breaker: it consumes the final batches of a pipeline
// and materializes state (hash table, aggregate table, sort run, outgoing
// exchange messages). Consume is called concurrently; Finalize exactly
// once after all workers finished.
type Sink interface {
	Consume(w *Worker, b *storage.Batch)
	Finalize() error
}

// Pipeline is one parallel execution stage: source → ops → sink.
type Pipeline struct {
	Name   string
	Source Source
	Ops    []Op
	Sink   Sink
	// CoordinatorOnly pipelines run only on the coordinating server
	// (final merges of distributed plans).
	CoordinatorOnly bool
}

// Graph is a set of pipelines plus explicit dependency edges: Deps[i]
// lists the pipeline indexes whose sinks must have finalized before
// pipeline i may start. Edges replace the implicit ordering of a flat
// pipeline list; independent pipelines (two hash builds, an
// exchange-receive and its upstream compute) run concurrently.
type Graph struct {
	Pipelines []*Pipeline
	Deps      [][]int
}

// ChainGraph builds a graph that executes pipelines strictly in slice
// order — the pre-DAG serial semantics, kept for ablation and as a
// reference path in tests.
func ChainGraph(pipelines []*Pipeline) *Graph {
	deps := make([][]int, len(pipelines))
	for i := 1; i < len(pipelines); i++ {
		deps[i] = []int{i - 1}
	}
	return &Graph{Pipelines: pipelines, Deps: deps}
}

// Validate checks edge indexes and rejects dependency cycles.
func (g *Graph) Validate() error {
	n := len(g.Pipelines)
	if len(g.Deps) > n {
		return fmt.Errorf("engine: graph has %d dep lists for %d pipelines", len(g.Deps), n)
	}
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, deps := range g.Deps {
		for _, d := range deps {
			if d < 0 || d >= n {
				return fmt.Errorf("engine: pipeline %d depends on out-of-range pipeline %d", i, d)
			}
			if d == i {
				return fmt.Errorf("engine: pipeline %d depends on itself", i)
			}
			indeg[i]++
			dependents[d] = append(dependents[d], i)
		}
	}
	// Kahn's algorithm: every pipeline must be reachable from the sources.
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, d := range dependents[v] {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("engine: pipeline dependency graph has a cycle")
	}
	return nil
}

// deps returns the dependency list of pipeline i (Deps may be shorter than
// Pipelines when trailing pipelines have no dependencies).
func (g *Graph) deps(i int) []int {
	if i < len(g.Deps) {
		return g.Deps[i]
	}
	return nil
}

// Engine is one server's persistent worker pool. Workers are started once
// at New, participate in every graph run submitted to the engine, and live
// until Close.
//
// Several graph runs — several queries — may be active at once: RunGraph
// registers its scheduler in the active set and every pool worker
// round-robins across the set per morsel, so concurrent queries share the
// pool fairly instead of queueing behind each other. Each run keeps its
// own cancellation and error state; a failing or cancelled query never
// disturbs the others.
type Engine struct {
	topo       *numa.Topology
	workers    []Worker
	morselSize int
	pool       colPool // scratch columns shared by the workers

	mu      sync.Mutex
	cond    *sync.Cond
	runs    []*scheduler // active graph runs sharing the pool
	wakeSeq uint64       // bumped whenever any run may have new work
	stop    bool
	wg      sync.WaitGroup

	rr atomic.Uint64 // rotates the first run each morsel pull looks at
}

// Config configures an engine.
type Config struct {
	Topology *numa.Topology
	// Workers is the number of worker threads. Zero means one per core of
	// the topology.
	Workers int
	// MorselSize overrides DefaultMorselSize when positive.
	MorselSize int
}

// New creates an engine and starts its worker pool.
func New(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("engine: topology is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Workers
	if n <= 0 {
		n = cfg.Topology.TotalCores()
	}
	ms := cfg.MorselSize
	if ms <= 0 {
		ms = DefaultMorselSize
	}
	e := &Engine{topo: cfg.Topology, morselSize: ms}
	e.pool.limit = poolLimit * ms
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < n; i++ {
		// Workers are assigned to sockets round-robin so every socket has
		// workers even when n < TotalCores.
		e.workers = append(e.workers, Worker{ID: i, Node: numa.Node(i % cfg.Topology.Sockets), pool: &e.pool})
	}
	for i := range e.workers {
		e.wg.Add(1)
		go e.workerLoop(&e.workers[i])
	}
	mWorkers.Add(float64(n))
	return e, nil
}

// Close stops the worker pool. Runs still active are aborted (their
// RunGraph callers return ErrCancelled) — with no workers left, nothing
// else could ever finish them.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.stop {
		e.mu.Unlock()
		return
	}
	e.stop = true
	// Snapshot under the same critical section that sets stop: any run
	// attached earlier is in the snapshot, any later RunGraph is refused.
	runs := append([]*scheduler(nil), e.runs...)
	e.cond.Broadcast()
	e.mu.Unlock()
	mWorkers.Add(-float64(len(e.workers)))
	e.wg.Wait()
	// Workers have drained their in-flight morsels and exited, so each
	// remaining run has inFlight == 0 and cancel completes it immediately,
	// unblocking its RunGraph caller.
	for _, s := range runs {
		s.cancel(ErrCancelled)
	}
}

// Workers returns the number of worker threads.
func (e *Engine) Workers() int { return len(e.workers) }

// MorselSize returns the configured morsel size.
func (e *Engine) MorselSize() int { return e.morselSize }

// Topology returns the engine's NUMA topology.
func (e *Engine) Topology() *numa.Topology { return e.topo }

// pulse records that new work may be available somewhere in the active
// set and rouses parked workers. Schedulers call it from their wake
// callbacks and on pipeline completions (lock order: a scheduler's mutex
// may be held while pulsing; the engine mutex is never held while calling
// into a scheduler).
func (e *Engine) pulse(all bool) {
	e.mu.Lock()
	e.wakeSeq++
	if all {
		e.cond.Broadcast()
	} else {
		e.cond.Signal()
	}
	e.mu.Unlock()
}

// workerLoop is one pool worker: it scans the active runs — starting at a
// rotating offset so morsel dispatch round-robins across concurrent
// queries — executes one morsel (or one finalize) per scan, and parks on
// the engine condition when no run has work.
func (e *Engine) workerLoop(w *Worker) {
	defer e.wg.Done()
	var runs []*scheduler
	e.mu.Lock()
	for {
		if e.stop {
			e.mu.Unlock()
			return
		}
		seq := e.wakeSeq
		prev := len(runs)
		runs = append(runs[:0], e.runs...)
		// Drop stale scheduler pointers beyond the new length: a parked
		// worker must not keep the previous query's graph (sinks, hash
		// tables) reachable through its snapshot's backing array. (When
		// append grew the array, the old one is unreferenced already.)
		if prev > len(runs) && prev <= cap(runs) {
			clear(runs[len(runs):prev])
		}
		e.mu.Unlock()

		worked := false
		if n := len(runs); n > 0 {
			off := int(e.rr.Add(1)-1) % n
			for k := 0; k < n; k++ {
				s := runs[(off+k)%n]
				i, b, progress := s.tryMorsel(w)
				if b != nil {
					t0 := time.Now()
					err := s.process(w, i, b)
					s.finishMorsel(i, time.Since(t0), err, w)
					// Morsel boundaries are the engine's cooperative
					// scheduling points: without this, one worker can drain
					// a cheap source before its peers are ever scheduled on
					// a loaded (or single-core) host.
					runtime.Gosched()
				}
				if progress {
					worked = true
					break // re-rotate so queries stay fairly interleaved
				}
			}
		}
		e.mu.Lock()
		if !worked && e.wakeSeq == seq && !e.stop {
			e.cond.Wait()
		}
	}
}

// RunOptions configures one graph execution.
type RunOptions struct {
	// Coordinator enables CoordinatorOnly pipelines; on other servers they
	// are skipped (their dependents are unblocked immediately, their sinks
	// never finalize).
	Coordinator bool
	// Context aborts the run when it is cancelled (e.g. because another
	// server of the cluster failed); RunGraph then returns ErrCancelled.
	// Nil means the run cannot be cancelled.
	Context context.Context
}

// RunGraph executes a pipeline DAG on the worker pool and returns
// per-pipeline statistics. Worker panics are captured and returned as an
// error wrapping the first panic with its pipeline name.
func (e *Engine) RunGraph(g *Graph, opt RunOptions) ([]PipelineStat, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, p := range g.Pipelines {
		if p.CoordinatorOnly && !opt.Coordinator {
			continue
		}
		if p.Source == nil || p.Sink == nil {
			return nil, fmt.Errorf("engine: pipeline %q needs a source and a sink", p.Name)
		}
	}
	s := newScheduler(g, opt.Coordinator, e.pulse, &e.pool)
	if opt.Context != nil {
		// The cancel runs on whichever goroutine cancels the context: the
		// run starts none of its own.
		defer context.AfterFunc(opt.Context, func() { s.cancel(ErrCancelled) })()
	}
	e.mu.Lock()
	if e.stop {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: RunGraph on a closed engine")
	}
	e.runs = append(e.runs, s)
	e.wakeSeq++
	e.cond.Broadcast()
	e.mu.Unlock()
	mActiveRuns.Add(1)

	<-s.doneCh

	e.mu.Lock()
	for i, r := range e.runs {
		if r == s {
			e.runs = append(e.runs[:i], e.runs[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	mActiveRuns.Add(-1)
	return s.results()
}

// RunPipeline executes one pipeline to completion with all workers.
func (e *Engine) RunPipeline(p *Pipeline) error {
	_, err := e.RunGraph(&Graph{Pipelines: []*Pipeline{p}}, RunOptions{Coordinator: true})
	return err
}
