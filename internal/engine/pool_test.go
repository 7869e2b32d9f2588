package engine

import (
	"sync/atomic"
	"testing"

	"hsqp/internal/numa"
	"hsqp/internal/storage"
)

func newPoolEngine(t *testing.T, morsel int) *Engine {
	t.Helper()
	e, err := New(Config{Topology: numa.TwoSocket(), Workers: 1, MorselSize: morsel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func pooled(e *Engine) []*storage.Column {
	var out []*storage.Column
	e.EachPooled(func(c *storage.Column) { out = append(out, c) })
	return out
}

// TestColumnPoolRoundTrip: a given column comes back on the next take of
// its storage class (any integer-backed type) that it has room for, empty,
// retyped and never grown; a fresh column is sized to its whole size
// class; nullability is a separate list; string slots are cleared on give.
func TestColumnPoolRoundTrip(t *testing.T) {
	e := newPoolEngine(t, 64)
	w := e.NewWorker(0)

	c := w.TakeColumn(storage.TDecimal, false, 10)
	if c.Len() != 0 || c.Room() != 16 || c.Type != storage.TDecimal {
		t.Fatalf("fresh take: len %d room %d type %v, want room 16", c.Len(), c.Room(), c.Type)
	}
	c.AppendI64(7)
	w.GiveColumns([]*storage.Column{c, nil})
	if got := pooled(e); len(got) != 1 || got[0] != c {
		t.Fatalf("pool after give holds %d columns, want the given one", len(got))
	}
	if n := w.TakeColumn(storage.TInt64, true, 4); n == c {
		t.Fatal("a nullable take returned a non-nullable pooled column")
	}
	if big := w.TakeColumn(storage.TInt64, false, 17); big == c {
		t.Fatal("a take of 17 values got a pooled column with room for 16")
	}
	again := w.TakeColumn(storage.TDate, false, 9)
	if again != c {
		t.Fatal("take after give did not reuse the pooled column")
	}
	if again.Len() != 0 || again.Room() != 16 || again.Type != storage.TDate {
		t.Fatalf("reused take: len %d room %d type %v", again.Len(), again.Room(), again.Type)
	}

	s := w.TakeColumn(storage.TString, false, 8)
	s.AppendStr("keeps an arena alive")
	s.AppendStr("so does this")
	s.Reset() // stale values beyond len must be cleared too
	s.AppendStr("live")
	w.GiveColumns([]*storage.Column{s})
	for _, p := range pooled(e) {
		for i, v := range p.Str[:cap(p.Str)] {
			if v != "" {
				t.Fatalf("pooled string column keeps %q at slot %d", v, i)
			}
		}
	}
}

// TestColumnPoolFallback: a nil worker and a bare &Worker{} have no pool —
// takes allocate, gives drop.
func TestColumnPoolFallback(t *testing.T) {
	for name, w := range map[string]*Worker{"nil": nil, "bare": {}} {
		c := w.TakeColumn(storage.TFloat64, true, 5)
		if c == nil || c.Room() < 5 || c.Type != storage.TFloat64 || !c.Nullable {
			t.Fatalf("%s worker: take returned %+v", name, c)
		}
		w.GiveColumns([]*storage.Column{c})
		if d := w.TakeColumn(storage.TFloat64, true, 5); d == c {
			t.Fatalf("%s worker: a give without a pool was reused", name)
		}
		if sel := w.Sel(9); len(sel) != 0 || cap(sel) < 9 {
			t.Fatalf("%s worker: Sel(9) = len %d cap %d", name, len(sel), cap(sel))
		}
	}
}

// TestColumnPoolBound: a column grown past poolLimit morsels is dropped on
// give, so one expanding join cannot pin its memory in the pool.
func TestColumnPoolBound(t *testing.T) {
	const morsel = 64
	e := newPoolEngine(t, morsel)
	w := e.NewWorker(0)
	big := w.TakeColumn(storage.TInt64, false, poolLimit*morsel+1)
	fits := w.TakeColumn(storage.TInt64, false, poolLimit*morsel)
	w.GiveColumns([]*storage.Column{big, fits})
	if got := pooled(e); len(got) != 1 || got[0] != fits {
		t.Fatalf("pool holds %d columns, want only the one within %d values", len(got), poolLimit*morsel)
	}
}

// releaseOp records when the scheduler releases it.
type releaseOp struct {
	sink     *countSink
	released atomic.Int64
	late     atomic.Bool // a Process after Release, or a Release before Finalize
}

func (o *releaseOp) Process(_ *Worker, b *storage.Batch) *storage.Batch {
	if o.released.Load() > 0 {
		o.late.Store(true)
	}
	return b
}

func (o *releaseOp) Release(w *Worker) {
	if w == nil || o.sink.finalized.Load() != 1 {
		o.late.Store(true)
	}
	o.released.Add(1)
}

// TestReleaseAfterFinalize: the scheduler releases a pipeline's operators
// exactly once, on a pool worker, after the last morsel and the sink's
// Finalize.
func TestReleaseAfterFinalize(t *testing.T) {
	e, _ := New(Config{Topology: numa.TwoSocket(), Workers: 3})
	defer e.Close()
	sink := &countSink{}
	o := &releaseOp{sink: sink}
	p := &Pipeline{Name: "p", Source: &countSource{left: 50, b: smallBatch()}, Ops: []Op{o}, Sink: sink}
	if err := e.RunPipeline(p); err != nil {
		t.Fatal(err)
	}
	if got := o.released.Load(); got != 1 {
		t.Fatalf("Release called %d times, want 1", got)
	}
	if o.late.Load() {
		t.Fatal("Release ran before Finalize or while morsels were still processed")
	}
}

// releaseSource is a countSource that records when the scheduler releases
// it.
type releaseSource struct {
	countSource
	sink     *countSink
	released atomic.Int64
	late     atomic.Bool // a Poll after Release, or a Release before Finalize
}

func (s *releaseSource) Poll(w *Worker) (*storage.Batch, bool) {
	if s.released.Load() > 0 {
		s.late.Store(true)
	}
	return s.countSource.Poll(w)
}

func (s *releaseSource) Release(w *Worker) {
	if w == nil || s.sink.finalized.Load() != 1 {
		s.late.Store(true)
	}
	s.released.Add(1)
}

// TestSourceReleasedAfterFinalize: a source that keeps pooled scratch (an
// exchange receive decoding into per-worker slots) is released exactly
// once, on a pool worker, after its last morsel and its sink's Finalize.
func TestSourceReleasedAfterFinalize(t *testing.T) {
	e, _ := New(Config{Topology: numa.TwoSocket(), Workers: 3})
	defer e.Close()
	sink := &countSink{}
	src := &releaseSource{countSource: countSource{left: 50, b: smallBatch()}, sink: sink}
	if err := e.RunPipeline(&Pipeline{Name: "p", Source: src, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if got := src.released.Load(); got != 1 {
		t.Fatalf("Release called %d times, want 1", got)
	}
	if src.late.Load() {
		t.Fatal("Release ran before Finalize or while the source was still read")
	}
}
