//go:build !race

package ser

import (
	"testing"

	"hsqp/internal/storage"
)

// TestDecodeAllocs: decoding into a destination that has the room
// allocates nothing for fixed-width rows (strings still cost one
// allocation each — the decoder copies them out of the message buffer),
// and a fresh destination costs its columns, not its rows.
func TestDecodeAllocs(t *testing.T) {
	const rows = 512
	c, wire := sizingRows("fixed", rows)
	dst := storage.NewBatch(c.Schema(), rows)
	if n := testing.AllocsPerRun(20, func() {
		dst.Reset()
		if _, err := c.DecodeAll(wire, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeAll into a destination with room allocates %v times, want 0", n)
	}
	perBatch := testing.AllocsPerRun(20, func() { storage.NewBatch(c.Schema(), 0) })
	if n := testing.AllocsPerRun(20, func() {
		if _, err := c.DecodeAll(wire, storage.NewBatch(c.Schema(), 0)); err != nil {
			t.Fatal(err)
		}
	}); n > perBatch+float64(c.Schema().Len()) {
		t.Errorf("DecodeAll into a fresh destination allocates %v times for %d columns (the empty batch itself: %v)",
			n, c.Schema().Len(), perBatch)
	}
}
