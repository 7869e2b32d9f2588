package exchange

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hsqp/internal/memory"
	"hsqp/internal/numa"
	"hsqp/internal/sketch"
)

// FuzzControlMessages feeds arbitrary bytes from a peer to the decoders of
// the two control messages, the semi-join filter and the skew sketch.
// Neither may panic or index out of range. A filter decodeFilter accepts
// merges, and the merged words are its bits; a sketch decodeSketch accepts
// encodes back to the same bytes. The seed corpus is in
// testdata/fuzz/FuzzControlMessages.
func FuzzControlMessages(f *testing.F) {
	f.Add(encodeFilter(minFilterLg, []int64{1, 2, 3}))
	f.Add(encodeSketch(nil, 7, []sketch.Entry{{Item: 42, Count: 5}, {Item: 9, Count: 2}}, 1<<10))
	f.Add([]byte{})
	f.Add([]byte{minFilterLg, 0xff})
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 4096, nil)
	const maxLg = 15 // 8 × a 4 KB message
	f.Fuzz(func(t *testing.T, in []byte) {
		if lg, err := decodeFilter(in, maxLg); err == nil {
			if len(in) != 1+1<<lg/8 {
				t.Fatalf("accepted a filter of 2^%d bits in %d bytes", lg, len(in))
			}
			msg := pool.Get(0)
			msg.Content = append(msg.Content, in...)
			sf := &SemiFilter{maxLg: maxLg}
			if err := sf.merge([]*memory.Message{msg}); err != nil {
				t.Fatalf("merge rejected a filter decodeFilter accepted: %v", err)
			}
			msg.Release()
			for i, w := range sf.words {
				if want := binary.LittleEndian.Uint64(in[1+8*i:]); w != want {
					t.Fatalf("merged word %d = %x, want %x", i, w, want)
				}
			}
		}
		if total, ents, err := decodeSketch(in); err == nil {
			if out := encodeSketch(nil, total, ents, len(in)); !bytes.Equal(out, in) {
				t.Fatalf("sketch re-encodes to %x, want %x", out, in)
			}
		}
	})
}
