package ser

import (
	"bytes"
	"sort"

	"hsqp/internal/storage"
)

// CanonicalRows serializes a batch into a canonical byte string: every row
// is wire-encoded separately (the codec is deterministic for a schema) and
// the encoded rows are sorted before concatenation. Result row *order* is
// scheduling-dependent — hash tables drain in worker order — so byte-exact
// conformance across serial and concurrent executions compares canonical
// encodings.
func CanonicalRows(b *storage.Batch) []byte {
	c := NewCodec(b.Schema)
	rows := make([][]byte, b.Rows())
	for i := range rows {
		rows[i] = c.EncodeRow(b, i, nil)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
	var out []byte
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}
