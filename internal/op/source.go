package op

import (
	"sync"

	"hsqp/internal/engine"
	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

// TableSource yields morsels from a table's NUMA-homed segments. Workers
// receive morsels of their own socket first and steal from other sockets
// when theirs is exhausted (morsel-driven NUMA-local processing, §3.2).
type TableSource struct {
	mu      sync.Mutex
	cursors [][]segCursor // per NUMA node
	morsel  int
}

type segCursor struct {
	seg *storage.Segment
	off int
}

// NewTableSource creates a source over the table with the given morsel
// size.
func NewTableSource(t *storage.Table, sockets, morselSize int) *TableSource {
	s := &TableSource{morsel: morselSize, cursors: make([][]segCursor, sockets)}
	for _, seg := range t.Segments {
		n := int(seg.Node)
		if n < 0 || n >= sockets {
			n = 0
		}
		s.cursors[n] = append(s.cursors[n], segCursor{seg: seg})
	}
	return s
}

// Poll implements engine.Source: the next morsel is a zero-copy
// column-window view over the segment; a table is done once every
// segment is scanned.
func (s *TableSource) Poll(w *engine.Worker) (*storage.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node := int(w.Node)
	if node < 0 || node >= len(s.cursors) {
		node = 0
	}
	// Own node first, then steal round-robin.
	for d := 0; d < len(s.cursors); d++ {
		n := (node + d) % len(s.cursors)
		for ci := range s.cursors[n] {
			c := &s.cursors[n][ci]
			if c.seg == nil || c.off >= c.seg.Rows() {
				continue
			}
			lo := c.off
			hi := min(lo+s.morsel, c.seg.Rows())
			c.off = hi
			return sliceBatch(c.seg.Batch, lo, hi), false
		}
	}
	return nil, true
}

// HasLocal implements engine.LocalityHinter: it reports whether the table
// still holds unscanned morsels homed on the given socket, so the
// scheduler can prefer pipelines with NUMA-local work for a worker before
// letting it steal remote morsels or switch pipelines.
func (s *TableSource) HasLocal(node numa.Node) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int(node)
	if n < 0 || n >= len(s.cursors) {
		return false
	}
	for ci := range s.cursors[n] {
		c := &s.cursors[n][ci]
		if c.seg != nil && c.off < c.seg.Rows() {
			return true
		}
	}
	return false
}

// sliceBatch returns a window [lo,hi) over b sharing the column storage;
// the window's column headers are one slab.
func sliceBatch(b *storage.Batch, lo, hi int) *storage.Batch {
	cols := make([]storage.Column, len(b.Cols))
	out := &storage.Batch{Schema: b.Schema, Cols: make([]*storage.Column, len(b.Cols))}
	for i, c := range b.Cols {
		w := &cols[i]
		w.Type, w.Nullable = c.Type, c.Nullable
		switch c.Type {
		case storage.TFloat64:
			w.F64 = c.F64[lo:hi]
		case storage.TString:
			w.Str = c.Str[lo:hi]
		default:
			w.I64 = c.I64[lo:hi]
		}
		if c.Nullable {
			w.Valid = c.Valid[lo:hi]
		}
		out.Cols[i] = w
	}
	return out
}

// BatchSource yields a fixed list of batches, one per Poll call.
type BatchSource struct {
	mu      sync.Mutex
	batches []*storage.Batch
	next    int
}

// NewBatchSource creates a source over pre-materialized batches.
func NewBatchSource(batches []*storage.Batch) *BatchSource {
	return &BatchSource{batches: batches}
}

// Poll implements engine.Source: the next non-empty batch, or done.
func (s *BatchSource) Poll(*engine.Worker) (*storage.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next < len(s.batches) {
		b := s.batches[s.next]
		s.next++
		if b != nil && b.Rows() > 0 {
			return b, false
		}
	}
	return nil, true
}

// EmptySource yields nothing (plan stages that don't run on this server).
type EmptySource struct{}

// Poll is always done.
func (EmptySource) Poll(*engine.Worker) (*storage.Batch, bool) { return nil, true }

// Collector is a sink that gathers all batches of a pipeline (the local
// materialization at the top of a plan or below a pipeline breaker that
// needs full input).
type Collector struct {
	mu      sync.Mutex
	batches []*storage.Batch
	rows    int
}

// Consume appends the batch.
func (c *Collector) Consume(_ *engine.Worker, b *storage.Batch) {
	c.mu.Lock()
	c.batches = append(c.batches, b)
	c.rows += b.Rows()
	c.mu.Unlock()
}

// Finalize implements engine.Sink.
func (c *Collector) Finalize() error { return nil }

// Batches returns the collected batches.
func (c *Collector) Batches() []*storage.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}

// Rows returns the number of collected rows.
func (c *Collector) Rows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows
}

// Flatten merges all collected batches into one (small results only).
func (c *Collector) Flatten(schema *storage.Schema) *storage.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := storage.NewBatch(schema, c.rows)
	for _, b := range c.batches {
		for i := 0; i < b.Rows(); i++ {
			out.AppendRowFrom(b, i)
		}
	}
	return out
}

// LazySource defers batch production until execution time: earlier
// pipelines materialize state (aggregates, sorts) that only exists after
// their Finalize, while plans are wired up front.
type LazySource struct {
	Fn     func() []*storage.Batch
	Morsel int

	mu    sync.Mutex
	inner *BatchSource
}

// Poll implements engine.Source.
func (s *LazySource) Poll(w *engine.Worker) (*storage.Batch, bool) {
	s.mu.Lock()
	if s.inner == nil {
		batches := s.Fn()
		if s.Morsel > 0 {
			batches = SplitIntoMorsels(batches, s.Morsel)
		}
		s.inner = NewBatchSource(batches)
	}
	inner := s.inner
	s.mu.Unlock()
	return inner.Poll(w)
}

// SplitIntoMorsels re-slices batches into windows of at most morsel rows
// so that several workers can share large materialized results.
func SplitIntoMorsels(batches []*storage.Batch, morsel int) []*storage.Batch {
	var out []*storage.Batch
	for _, b := range batches {
		n := b.Rows()
		if n <= morsel {
			if n > 0 {
				out = append(out, b)
			}
			continue
		}
		for lo := 0; lo < n; lo += morsel {
			out = append(out, sliceBatch(b, lo, min(lo+morsel, n)))
		}
	}
	return out
}
