package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/storage"
)

// pstate is the lifecycle of one pipeline inside a scheduler run.
type pstate int8

const (
	psBlocked    pstate = iota // unmet dependencies
	psRunnable                 // dispatchable: workers may pull morsels
	psFinalizing               // source drained, Finalize in flight
	psDone                     // finalized (or skipped)
)

// pipeNode is the scheduler's view of one pipeline.
type pipeNode struct {
	p       *Pipeline
	hint    LocalityHinter // non-nil when the source advertises locality
	deps    int            // unmet dependency count
	depOn   []int          // pipelines waiting on this one
	state   pstate
	active  int  // workers currently processing a morsel
	srcDone bool // source reported exhaustion
	skipped bool // coordinator-only pipeline on a non-coordinator

	started  bool
	startT   time.Duration
	endT     time.Duration
	busy     time.Duration
	finalize time.Duration // wall time spent in the sink's Finalize
	morsels  int
	ops      []opCounter // per-operator counters, parallel to p.Ops
}

// opCounter accumulates one operator's execution profile. Workers update
// it outside the scheduler lock, so all fields are atomics.
type opCounter struct {
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	batches atomic.Int64
	allocs  atomic.Int64 // batches returned that were not the input batch
	nanos   atomic.Int64
}

// scheduler tracks pipeline readiness by in-degree counting and hands
// morsels from all runnable pipelines to the engine's pool workers. A
// pipeline drains when its source is exhausted and no worker still holds
// one of its morsels; its sink then finalizes exactly once, unlocking its
// dependents.
//
// One scheduler is one query's run. Several schedulers can be active on
// the engine at once; workers pull from them through tryMorsel (never
// blocking inside a scheduler), and the scheduler reports new work to the
// shared pool through notify.
type scheduler struct {
	mu sync.Mutex

	nodes     []pipeNode
	remaining int // pipelines not yet done
	inFlight  int // morsels being processed across all pipelines

	// notify rouses the engine's pool workers: notify(false) wakes one
	// (one delivery = one unit of work), notify(true) wakes all (pipeline
	// completions can unlock many dependents; worker-targeted sources need
	// the one worker that can consume the delivery to look). Streaming
	// sources get it as their wake (WakeSource). It may be called with
	// s.mu held — the engine never holds its own mutex while calling into
	// a scheduler.
	notify func(all bool)
	pool   *colPool // the engine's: an aborted run releases into it

	err      error
	aborted  bool
	finished bool
	start    time.Time
	doneCh   chan struct{}
}

func newScheduler(g *Graph, isCoordinator bool, notify func(all bool), pool *colPool) *scheduler {
	s := &scheduler{
		nodes:  make([]pipeNode, len(g.Pipelines)),
		notify: notify,
		pool:   pool,
		doneCh: make(chan struct{}),
		start:  time.Now(),
	}
	for i, p := range g.Pipelines {
		n := &s.nodes[i]
		n.p = p
		n.ops = make([]opCounter, len(p.Ops))
		n.deps = len(g.deps(i))
		n.skipped = p.CoordinatorOnly && !isCoordinator
		n.hint, _ = p.Source.(LocalityHinter)
		for _, d := range g.deps(i) {
			s.nodes[d].depOn = append(s.nodes[d].depOn, i)
		}
	}
	s.remaining = len(s.nodes)

	s.mu.Lock()
	for i := range s.nodes {
		if n := &s.nodes[i]; n.state == psBlocked && n.deps == 0 {
			s.readyLocked(i)
		}
	}
	if s.remaining == 0 && !s.finished {
		s.finishLocked()
	}
	s.mu.Unlock()

	// Register wake callbacks so message arrival restarts idle workers.
	for i := range s.nodes {
		n := &s.nodes[i]
		if ws, ok := n.p.Source.(WakeSource); ok && !n.skipped {
			ws.SetWake(notify)
		}
	}
	return s
}

// cancel aborts the run; in-flight morsels complete, nothing new starts.
func (s *scheduler) cancel(err error) {
	s.mu.Lock()
	if !s.finished && !s.aborted {
		s.aborted = true
		if s.err == nil {
			s.err = err
		}
		if s.inFlight == 0 {
			s.finishLocked()
		} else {
			s.notify(true)
		}
	}
	s.mu.Unlock()
}

// tryMorsel picks a runnable pipeline and pulls one morsel from it for
// worker w, without ever parking the worker: the engine loops over all
// active runs and sleeps on its own condition when every run is idle.
//
// Pipelines whose sources still hold NUMA-local work for w's socket are
// preferred (pass 0); when w's socket is dry everywhere the worker steals
// remote morsels and work from other pipelines (pass 1). Sources are
// always pulled outside the scheduler lock: they take their own locks and
// may invoke wake callbacks from other goroutines.
//
// The return value is (pipeline, morsel, progress): a nil morsel with
// progress=true means the call advanced the run another way (finalized a
// drained pipeline), so the caller should rescan; progress=false means
// this run has nothing to offer right now.
func (s *scheduler) tryMorsel(w *Worker) (node int, b *storage.Batch, progress bool) {
	s.mu.Lock()
	if s.finished || s.aborted {
		s.mu.Unlock()
		return 0, nil, false
	}
	for pass := 0; pass < 2; pass++ {
		for i := range s.nodes {
			n := &s.nodes[i]
			if n.state != psRunnable || n.srcDone {
				continue
			}
			local := n.hint == nil || n.hint.HasLocal(w.Node)
			if (pass == 0) != local {
				continue
			}
			n.active++
			s.inFlight++
			s.mu.Unlock()
			mb, srcDone := n.p.Source.Poll(w)
			s.mu.Lock()
			if mb != nil {
				if !n.started {
					n.started = true
					n.startT = time.Since(s.start)
				}
				n.morsels++
				s.mu.Unlock()
				mMorsels.Inc()
				if pass == 1 {
					// Pass 1 only runs when w's socket was dry everywhere:
					// this morsel was stolen across sockets or pipelines.
					mSteals.Inc()
				}
				return i, mb, true
			}
			n.active--
			s.inFlight--
			if srcDone {
				n.srcDone = true
				s.checkSourceErrLocked(n)
			}
			if !s.aborted && n.srcDone && n.active == 0 && n.state == psRunnable {
				s.finalizeLocked(i, w)
				s.mu.Unlock()
				return 0, nil, true // completion may have unlocked dependents
			}
			if s.aborted && s.inFlight == 0 && !s.finished {
				// Aborted runs must not flush sinks of a query being torn
				// down; this worker held the last in-flight slot, so it
				// ends the run (mirrors finishMorsel).
				s.finishLocked()
			}
			if s.finished || s.aborted {
				s.mu.Unlock()
				return 0, nil, false
			}
		}
	}
	s.mu.Unlock()
	return 0, nil, false
}

// process pushes one morsel through the pipeline, converting panics into
// errors so a bad operator cannot kill the whole cluster simulation. Each
// operator call is bracketed with row/time counters (atomics, no lock) —
// the raw material of explain analyze.
func (s *scheduler) process(w *Worker, node int, b *storage.Batch) (err error) {
	n := &s.nodes[node]
	p := n.p
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline %q worker panicked: %v", p.Name, r)
			// The operator never popped what it pushed.
			w.nCol, w.n32 = 0, 0
		}
	}()
	for oi, op := range p.Ops {
		c := &n.ops[oi]
		in := b
		rowsIn := int64(b.Rows())
		t0 := time.Now()
		b = op.Process(w, b)
		c.nanos.Add(int64(time.Since(t0)))
		c.batches.Add(1)
		c.rowsIn.Add(rowsIn)
		if b == nil || b.Rows() == 0 {
			return nil
		}
		c.rowsOut.Add(int64(b.Rows()))
		if b != in {
			c.allocs.Add(1)
		}
	}
	p.Sink.Consume(w, b)
	return nil
}

// finishMorsel returns a worker's morsel slot and drives drain detection.
func (s *scheduler) finishMorsel(i int, d time.Duration, err error, w *Worker) {
	s.mu.Lock()
	n := &s.nodes[i]
	n.active--
	s.inFlight--
	n.busy += d
	mBusyNanos.AddDuration(d)
	if err != nil {
		s.abortLocked(err)
	}
	if !s.aborted && n.srcDone && n.active == 0 && n.state == psRunnable {
		s.finalizeLocked(i, w)
	} else if s.aborted && s.inFlight == 0 && !s.finished {
		s.finishLocked()
	}
	s.mu.Unlock()
}

// checkSourceErrLocked aborts the run when a drained source reports a
// mid-stream failure (FallibleSource), naming the pipeline.
func (s *scheduler) checkSourceErrLocked(n *pipeNode) {
	fs, ok := n.p.Source.(FallibleSource)
	if !ok {
		return
	}
	if err := fs.Err(); err != nil {
		s.abortLocked(fmt.Errorf("pipeline %q source: %w", n.p.Name, err))
	}
}

// finalizeLocked finalizes pipeline i's sink (outside the lock: sinks send
// messages, which can re-enter the scheduler through wake callbacks),
// releases its source's and operators' scratch (Releaser) and completes
// it. w is the pool worker driving the finalize; NUMA-aware sinks
// (WorkerFinalizer) allocate their flush buffers on its socket.
func (s *scheduler) finalizeLocked(i int, w *Worker) {
	n := &s.nodes[i]
	n.state = psFinalizing
	if !n.started {
		// A pipeline whose source yielded nothing still finalizes (empty
		// hash table, Last markers); its wall interval is just that point.
		n.started = true
		n.startT = time.Since(s.start)
	}
	// The Finalize call counts as in-flight work: a concurrent cancel must
	// not complete the run (and release the engine for the next graph)
	// while a sink is still flushing messages.
	s.inFlight++
	s.mu.Unlock()
	t0 := time.Now()
	err := safeFinalize(n.p, w)
	// No morsel of this pipeline is in flight and its sink has finalized:
	// source and operator scratch goes back to the engine's pool for the
	// next query.
	release(n.p, w, false)
	fin := time.Since(t0)
	mFinalizeNanos.AddDuration(fin)
	s.mu.Lock()
	n.finalize = fin
	s.inFlight--
	s.completeLocked(i, err)
}

// release hands back what p's source and operators — and, for a pipeline
// an aborted run never finalized, its sink — hold across morsels.
func release(p *Pipeline, w *Worker, sink bool) {
	rel := func(x any) {
		if r, ok := x.(Releaser); ok {
			r.Release(w)
		}
	}
	rel(p.Source)
	for _, op := range p.Ops {
		rel(op)
	}
	if sink {
		rel(p.Sink)
	}
}

func safeFinalize(p *Pipeline, w *Worker) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline %q finalize panicked: %v", p.Name, r)
		}
	}()
	if wf, ok := p.Sink.(WorkerFinalizer); ok && w != nil {
		return wf.FinalizeOn(w)
	}
	return p.Sink.Finalize()
}

// readyLocked is called when pipeline i's last dependency completed: it
// becomes runnable, or — skipped on this server — completes on the spot
// (without finalizing its sink). A skipped pipeline must not complete any
// earlier: its dependents transitively wait for its dependencies, which is
// what keeps a ChainGraph in order across a coordinator-only pipeline.
func (s *scheduler) readyLocked(i int) {
	if s.nodes[i].skipped {
		s.completeLocked(i, nil)
		return
	}
	s.nodes[i].state = psRunnable
}

// completeLocked marks pipeline i done and unlocks its dependents.
func (s *scheduler) completeLocked(i int, err error) {
	n := &s.nodes[i]
	n.state = psDone
	n.endT = time.Since(s.start)
	s.remaining--
	if err != nil {
		s.abortLocked(fmt.Errorf("pipeline %q: %w", n.p.Name, err))
	}
	for _, d := range n.depOn {
		dn := &s.nodes[d]
		dn.deps--
		if dn.state == psBlocked && dn.deps == 0 && !s.aborted {
			s.readyLocked(d)
		}
	}
	if s.remaining == 0 || (s.aborted && s.inFlight == 0) {
		if !s.finished {
			s.finishLocked()
		}
	}
	s.notify(true)
}

func (s *scheduler) abortLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	s.aborted = true
}

// finishLocked ends the run. An aborted one has no morsel in flight here:
// every pipeline it started but never finalized releases what it holds,
// through a worker of its own (the goroutine that cancelled the run's
// context has none).
func (s *scheduler) finishLocked() {
	s.finished = true
	if s.aborted {
		w := &Worker{pool: s.pool}
		for i := range s.nodes {
			if n := &s.nodes[i]; n.state == psRunnable {
				release(n.p, w, true)
			}
		}
	}
	close(s.doneCh)
	s.notify(true)
}

// results reports per-pipeline statistics and the run error, if any.
func (s *scheduler) results() ([]PipelineStat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := make([]PipelineStat, len(s.nodes))
	for i := range s.nodes {
		n := &s.nodes[i]
		stats[i] = PipelineStat{
			Name:     n.p.Name,
			Skipped:  n.skipped,
			Start:    n.startT,
			End:      n.endT,
			Busy:     n.busy,
			Finalize: n.finalize,
			Morsels:  n.morsels,
		}
		if len(n.p.Ops) > 0 {
			ops := make([]OpStat, len(n.p.Ops))
			for oi, op := range n.p.Ops {
				c := &n.ops[oi]
				allocs := c.allocs.Load()
				if ac, ok := op.(AllocCounter); ok {
					allocs = int64(ac.BatchAllocs())
				}
				ops[oi] = OpStat{
					Name:    displayName(op),
					RowsIn:  c.rowsIn.Load(),
					RowsOut: c.rowsOut.Load(),
					Batches: c.batches.Load(),
					Allocs:  allocs,
					Time:    time.Duration(c.nanos.Load()),
				}
			}
			stats[i].Ops = ops
		}
		if !n.skipped {
			stats[i].SinkName = displayName(n.p.Sink)
			if ss, ok := n.p.Sink.(SinkStats); ok {
				stats[i].SinkRows, stats[i].SinkBytes = ss.SinkStats()
			}
		}
	}
	if s.err != nil {
		return stats, fmt.Errorf("engine: %w", s.err)
	}
	return stats, nil
}

// displayName resolves an operator/sink label: NamedOp if implemented,
// otherwise the lower-cased Go type name without package or pointer.
func displayName(x any) string {
	if n, ok := x.(NamedOp); ok {
		return n.OpName()
	}
	name := strings.TrimPrefix(fmt.Sprintf("%T", x), "*")
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return strings.ToLower(name)
}
