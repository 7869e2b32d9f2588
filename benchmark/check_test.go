package main

import (
	"testing"

	"hsqp/internal/ref"
	"hsqp/internal/storage"
)

func batchOf(rows ...[]any) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "s", Type: storage.TString},
		storage.Field{Name: "v", Type: storage.TInt64},
	), len(rows))
	for _, r := range rows {
		b.AppendRow(r...)
	}
	return b
}

func refOf(rows ...[]any) *ref.Result {
	r := &ref.Result{}
	for _, row := range rows {
		r.Rows = append(r.Rows, ref.Row(row))
	}
	return r
}

func TestDigestIsAMultisetHashForUnlimitedStatements(t *testing.T) {
	a, b, c := []any{int64(1), "x", int64(10)}, []any{int64(2), "y", int64(20)}, []any{int64(2), "y", int64(21)}
	const q = 1 // no LIMIT
	want := digestRef(q, refOf(a, b, b))
	if got := digestBatch(q, batchOf(b, a, b)); got != want {
		t.Errorf("same multiset in another order: %v != %v", got, want)
	}
	if got := digestBatch(q, batchOf(a, a, b)); got == want {
		t.Error("different multiplicities digest equal")
	}
	if got := digestBatch(q, batchOf(a, b, c)); got == want {
		t.Error("a differing value digests equal")
	}
	if got := digestBatch(q, batchOf(a, b)); got == want {
		t.Error("a missing row digests equal")
	}
}

func TestDigestComparesSortKeysInOrderForLimitStatements(t *testing.T) {
	const q = 10 // LIMIT, ordered by column 2
	a, b := []any{int64(1), "x", int64(10)}, []any{int64(2), "y", int64(20)}
	tie := []any{int64(9), "other", int64(10)} // ties with a on the sort key
	want := digestRef(q, refOf(a, b))
	if got := digestBatch(q, batchOf(tie, b)); got != want {
		t.Errorf("a row tied on the sort key must match: %v != %v", got, want)
	}
	if got := digestBatch(q, batchOf(b, a)); got == want {
		t.Error("sort-key order must matter for a LIMIT statement")
	}
}

func TestDigestSeparatesFields(t *testing.T) {
	if digestBatch(1, batchOf([]any{int64(1), "2", int64(3)})) == digestBatch(1, batchOf([]any{int64(12), "", int64(3)})) {
		t.Error("field boundaries do not enter the digest")
	}
}
