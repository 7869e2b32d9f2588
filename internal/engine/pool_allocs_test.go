//go:build !race

package engine

import (
	"testing"

	"hsqp/internal/storage"
)

// TestColumnPoolAllocs: once the pool holds a column of the class, a take
// and give round trip allocates nothing, and neither does a warm worker's
// scratch stack.
func TestColumnPoolAllocs(t *testing.T) {
	e := newPoolEngine(t, 1024)
	w := e.NewWorker(0)
	cols := []*storage.Column{w.TakeColumn(storage.TString, true, 512)}
	w.GiveColumns(cols)
	if got := testing.AllocsPerRun(100, func() {
		cols[0] = w.TakeColumn(storage.TString, true, 512)
		w.GiveColumns(cols)
	}); got != 0 {
		t.Errorf("take + give on a warm pool allocates %v times, want 0", got)
	}
	scratch := func() {
		a, b := w.PushCol(storage.TInt64, 1024), w.PushI32(1024)
		w.PopI32(b)
		w.PopCol()
		_ = a
	}
	scratch()
	if got := testing.AllocsPerRun(100, scratch); got != 0 {
		t.Errorf("scratch push + pop on a warm worker allocates %v times, want 0", got)
	}
}
