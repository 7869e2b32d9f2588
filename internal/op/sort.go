package op

import (
	"sort"
	"sync"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// TopK is a sort / top-k pipeline breaker: it collects all input rows,
// sorts them by the keys and optionally keeps only the first Limit rows.
// Limit ≤ 0 means full sort (ORDER BY without LIMIT).
type TopK struct {
	Keys   []SortKey
	Limit  int
	Schema *storage.Schema

	mu   sync.Mutex
	rows *storage.Batch
	out  *storage.Batch
}

// NewTopK creates the sink. Its row buffer starts at min(limit, 1024) rows
// (empty for a full sort) and grows as rows arrive: a plan compiles one or
// two per ORDER BY, most of which see few rows.
func NewTopK(schema *storage.Schema, keys []SortKey, limit int) *TopK {
	return &TopK{Keys: keys, Limit: limit, Schema: schema, rows: storage.NewBatch(schema, min(max(limit, 0), 1024))}
}

// Consume implements engine.Sink.
func (t *TopK) Consume(_ *engine.Worker, b *storage.Batch) {
	t.mu.Lock()
	for i := 0; i < b.Rows(); i++ {
		t.rows.AppendRowFrom(b, i)
	}
	t.mu.Unlock()
}

// Finalize sorts and truncates.
func (t *TopK) Finalize() error {
	n := t.rows.Rows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return CompareRows(t.rows, idx[a], t.rows, idx[b], t.Keys) < 0
	})
	if t.Limit > 0 && t.Limit < n {
		idx = idx[:t.Limit]
	}
	out := storage.NewBatch(t.Schema, len(idx))
	for _, i := range idx {
		out.AppendRowFrom(t.rows, i)
	}
	t.out = out
	t.rows = nil
	return nil
}

// Batches returns the sorted result.
func (t *TopK) Batches() []*storage.Batch {
	if t.out == nil {
		panic("op: TopK batches requested before Finalize")
	}
	return []*storage.Batch{t.out}
}

// CompareRows orders row ai of a against row bi of b under the sort keys:
// −1, 0 or 1. NULLs sort first.
func CompareRows(a *storage.Batch, ai int, b *storage.Batch, bi int, keys []SortKey) int {
	for _, k := range keys {
		ca, cb := a.Cols[k.Col], b.Cols[k.Col]
		cmp := compareVal(ca, ai, cb, bi)
		if k.Desc {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp
		}
	}
	return 0
}

func compareVal(ca *storage.Column, ai int, cb *storage.Column, bi int) int {
	an, bn := ca.IsNull(ai), cb.IsNull(bi)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch ca.Type {
	case storage.TString:
		switch {
		case ca.Str[ai] < cb.Str[bi]:
			return -1
		case ca.Str[ai] > cb.Str[bi]:
			return 1
		}
	case storage.TFloat64:
		switch {
		case ca.F64[ai] < cb.F64[bi]:
			return -1
		case ca.F64[ai] > cb.F64[bi]:
			return 1
		}
	default:
		switch {
		case ca.I64[ai] < cb.I64[bi]:
			return -1
		case ca.I64[ai] > cb.I64[bi]:
			return 1
		}
	}
	return 0
}
