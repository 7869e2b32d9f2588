//go:build !race

package engine

import (
	"testing"

	"hsqp/internal/storage"
)

// TestColumnPoolAllocs: once the pool holds a column of the class, a take
// and give round trip allocates nothing, and neither does a warm worker's
// selection vector.
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
	w.Sel(1024)
	if got := testing.AllocsPerRun(100, func() { w.Sel(1024) }); got != 0 {
		t.Errorf("Sel on a warm worker allocates %v times, want 0", got)
	}
}
