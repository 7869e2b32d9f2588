//go:build !race

package storage

import "testing"

// TestNewBatchAllocs: a batch is its header, its column-pointer slice and
// one slab of column headers, plus each column's backing arrays — not an
// allocation per column header.
func TestNewBatchAllocs(t *testing.T) {
	schema := NewSchema(
		Field{Name: "k", Type: TInt64},
		Field{Name: "f", Type: TFloat64},
		Field{Name: "s", Type: TString},
		Field{Name: "d", Type: TDate, Nullable: true},
	)
	if n := testing.AllocsPerRun(20, func() { NewBatch(schema, 0) }); n != 3 {
		t.Errorf("NewBatch of %d empty columns allocates %v times, want 3", schema.Len(), n)
	}
	// Four value arrays and the nullable column's validity.
	if n := testing.AllocsPerRun(20, func() { NewBatch(schema, 64) }); n != 3+5 {
		t.Errorf("NewBatch of %d columns with capacity allocates %v times, want 3+5", schema.Len(), n)
	}
}
