package op

import (
	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// outSlot is one worker's reusable output batch (reuse mode of FusedStage
// and JoinProbe). The header lives as long as the operator; the columns
// come from the engine's pool on first use after a release and go back on
// Release, at pipeline completion. A batch handed out from the slot is
// valid until the operator's next Process on the same slot, which is why
// only plan.scratchSafe may turn reuse on.
type outSlot struct {
	b    storage.Batch
	_pad [4]uint64 // avoid false sharing between slots
}

// take returns the slot's batch, empty, with room for exactly n rows in
// every column (Column.Grow: no append-doubling). fresh reports that the
// slot's header was created by this call.
func (s *outSlot) take(w *engine.Worker, schema *storage.Schema, n int) (b *storage.Batch, fresh bool) {
	if s.b.Cols == nil {
		s.b.Schema = schema
		s.b.Cols = make([]*storage.Column, schema.Len())
		fresh = true
	}
	for i, c := range s.b.Cols {
		if c == nil {
			f := schema.Fields[i]
			s.b.Cols[i] = w.TakeColumn(f.Type, f.Nullable, n)
			continue
		}
		c.Reset()
		c.Grow(n)
	}
	return &s.b, fresh
}

// release gives the slot's columns back to the pool; the header stays.
func (s *outSlot) release(w *engine.Worker) {
	w.GiveColumns(s.b.Cols)
	clear(s.b.Cols)
}

// slotOf maps a worker onto one of n per-worker scratch slots (slot 0 for
// a nil worker: operators driven directly by tests).
func slotOf(w *engine.Worker, n int) int {
	if w == nil {
		return 0
	}
	return w.ID % n
}
