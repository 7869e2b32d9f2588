package engine

import (
	"math/bits"
	"sync"

	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// Releaser is implemented by operators and sources that keep per-worker
// scratch (output batches, computed columns, decode targets) across
// morsels, and by sinks that hold pooled buffers until they finalize. The
// scheduler calls Release on a source and its operators once the pipeline
// has no morsel in flight and its sink finalized; the holder hands its
// pooled columns back through w.GiveColumns. An aborted run finalizes
// nothing more: once no morsel is in flight, every pipeline it started
// but never finalized releases its source, operators and sink, once.
type Releaser interface {
	Release(w *Worker)
}

// Slot is one worker's reusable batch: the output of a reuse-mode
// FusedStage or JoinProbe, the decode target of a reuse-mode exchange
// receive. The header lives as long as its holder; the columns come from
// the engine's pool on first use after a release and go back on Release,
// at pipeline completion. A batch handed out from the slot is valid until
// the holder's next Take on the same slot, which is why only
// plan.scratchSafe may turn reuse on.
type Slot struct {
	b    storage.Batch
	_pad [4]uint64 // avoid false sharing between slots
}

// Take returns the slot's batch, empty, with room for n rows in every
// column. fresh reports that the slot's header was created by this call.
// A column without the room is traded for a pooled one of n's size class
// rather than grown, so the slot never reallocates a pooled column.
func (s *Slot) Take(w *Worker, schema *storage.Schema, n int) (b *storage.Batch, fresh bool) {
	if s.b.Cols == nil {
		s.b.Schema = schema
		s.b.Cols = make([]*storage.Column, schema.Len())
		fresh = true
	}
	for i, c := range s.b.Cols {
		if c != nil {
			c.Reset()
			if c.Room() >= n {
				continue
			}
			w.GiveColumns(s.b.Cols[i : i+1])
		}
		f := schema.Fields[i]
		s.b.Cols[i] = w.TakeColumn(f.Type, f.Nullable, n)
	}
	return &s.b, fresh
}

// Release gives the slot's columns back to the pool; the header stays.
func (s *Slot) Release(w *Worker) {
	w.GiveColumns(s.b.Cols)
	clear(s.b.Cols)
}

// SlotOf maps a worker onto one of n per-worker slots (slot 0 for a nil
// worker: operators driven directly by tests).
func SlotOf(w *Worker, n int) int {
	if w == nil {
		return 0
	}
	return w.ID % n
}

// colPool is an engine's free list of scratch columns, shared by all its
// workers and all queries: an operator takes columns while its pipeline
// runs and gives them back when the pipeline completes, so the next
// query's intermediates reuse this one's memory (§2.2.2 amortizes buffer
// registration the same way).
//
// Free columns are kept by size class: class k holds columns with room for
// at least 1<<k values, and a take of n values looks only at classes that
// fit n, allocating a full class-sized column on a miss. A take therefore
// never grows a pooled column: the pool grows only when a size's demand
// peaks, mostly in the first rounds of queries, instead of ratcheting
// columns up one reallocation at a time.
type colPool struct {
	mu    sync.Mutex
	free  [3][2][poolClasses][]*storage.Column // [storage class][nullable][size class]
	limit int                                  // columns with more capacity are dropped
}

// poolLimit is how many values a pooled column may hold, in morsels: a
// column an expanding join grew further is dropped on give rather than
// pinned for the life of the process.
const poolLimit = 4

// poolClasses bounds the size classes; class k holds room for 1<<k values.
const poolClasses = 32

// sizeClass returns the smallest class whose columns have room for n.
func sizeClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// classes returns the size-classed free lists for columns of type t: the
// integer-backed types (int64, decimal, date) share one set. Caller holds
// p.mu.
func (p *colPool) classes(t storage.Type, nullable bool) *[poolClasses][]*storage.Column {
	k, v := 0, 0
	switch t {
	case storage.TFloat64:
		k = 1
	case storage.TString:
		k = 2
	}
	if nullable {
		v = 1
	}
	return &p.free[k][v]
}

func (p *colPool) take(t storage.Type, nullable bool, n int) *storage.Column {
	want := sizeClass(n)
	if 1<<want > p.limit {
		return storage.NewColumn(t, nullable, n) // too big to pool anyway
	}
	p.mu.Lock()
	lists := p.classes(t, nullable)
	var c *storage.Column
	for k := want; k < poolClasses && c == nil; k++ {
		if last := len(lists[k]) - 1; last >= 0 {
			c = lists[k][last]
			lists[k][last] = nil
			lists[k] = lists[k][:last]
		}
	}
	p.mu.Unlock()
	if c == nil {
		return storage.NewColumn(t, nullable, 1<<want)
	}
	c.Type = t
	return c
}

func (p *colPool) give(cols []*storage.Column) {
	for _, c := range cols {
		if c == nil {
			continue
		}
		// Clear string slots up to capacity: a pooled column must not keep
		// a decoded message's string arena alive.
		clear(c.Str[:cap(c.Str)])
		c.Reset()
		room := c.Room()
		if room == 0 || room > p.limit {
			continue
		}
		p.mu.Lock()
		lists := p.classes(c.Type, c.Nullable)
		k := bits.Len(uint(room)) - 1 // room >= 1<<k
		lists[k] = append(lists[k], c)
		p.mu.Unlock()
	}
}

// TakeColumn returns an empty column of type t with room for n values,
// from the engine's pool when w belongs to one. A nil worker or a bare
// &Worker{} (operators driven directly by tests and probes) gets a fresh
// storage.NewColumn.
func (w *Worker) TakeColumn(t storage.Type, nullable bool, n int) *storage.Column {
	if w == nil || w.pool == nil {
		return storage.NewColumn(t, nullable, n)
	}
	return w.pool.take(t, nullable, n)
}

// GiveColumns returns columns to the engine's pool (nil entries are
// skipped). The caller must hold no other reference: the next TakeColumn,
// on any worker and for any query, may overwrite them. Without a pool the
// columns are left to the garbage collector.
func (w *Worker) GiveColumns(cols []*storage.Column) {
	if w == nil || w.pool == nil {
		return
	}
	w.pool.give(cols)
}

// NewWorker returns a worker outside the pool that shares the engine's
// column pool: it drives operators directly (tests, probes) the way a pool
// worker would, with its own hash vector and scratch stacks.
func (e *Engine) NewWorker(id int) *Worker {
	return &Worker{ID: id, Node: numa.Node(id % e.topo.Sockets), pool: &e.pool}
}

// EachPooled calls f on every column currently in the engine's pool, under
// the pool lock. Lifetime tests use it to scribble over pooled memory and
// prove that no result still reads it.
func (e *Engine) EachPooled(f func(*storage.Column)) {
	p := &e.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, byNull := range p.free {
		for _, byClass := range byNull {
			for _, list := range byClass {
				for _, c := range list {
					f(c)
				}
			}
		}
	}
}
