//go:build !race

package ser

import (
	"testing"

	"hsqp/internal/storage"
)

// TestDecodeAllocs: decoding allocates per message, not per row. Into a
// destination that has the room, fixed-width rows cost nothing and rows
// with strings one allocation — the arena their bytes are copied into —
// whatever the row count; a fresh destination costs what a batch sized
// for the rows costs, plus that arena.
func TestDecodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		schema string
		arena  float64
	}{{"fixed", 0}, {"string", 1}} {
		for _, rows := range []int{64, 512} {
			c, wire := sizingRows(tc.schema, rows)
			dst := storage.NewBatch(c.Schema(), rows)
			if n := testing.AllocsPerRun(20, func() {
				dst.Reset()
				if _, err := c.DecodeAll(wire, dst); err != nil {
					t.Fatal(err)
				}
			}); n > tc.arena {
				t.Errorf("%s, %d rows: DecodeAll into a destination with room allocates %v times, want %v", tc.schema, rows, n, tc.arena)
			}
			sized := testing.AllocsPerRun(20, func() { storage.NewBatch(c.Schema(), rows) })
			if n := testing.AllocsPerRun(20, func() {
				if _, err := c.DecodeAll(wire, storage.NewBatch(c.Schema(), 0)); err != nil {
					t.Fatal(err)
				}
			}); n > sized+tc.arena {
				t.Errorf("%s, %d rows: DecodeAll into a fresh destination allocates %v times; a batch sized for the rows: %v, arena: %v",
					tc.schema, rows, n, sized, tc.arena)
			}
		}
	}
}
