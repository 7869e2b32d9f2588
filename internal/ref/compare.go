package ref

import (
	"fmt"
	"sort"
	"strings"

	"hsqp/internal/storage"
)

// limitSortKeys lists, for queries with LIMIT, the output columns that are
// fully determined by the ORDER BY (ties below the limit boundary may
// legitimately differ between engines in the remaining columns).
var limitSortKeys = map[int][]int{
	2:  {0},    // s_acctbal (desc) — name/partkey ties can straddle the cut
	3:  {1, 2}, // revenue, o_orderdate
	10: {2},    // revenue
	18: {4, 3}, // o_totalprice, o_orderdate
	21: {1},    // numwait
}

func formatRow(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		if v == nil {
			parts[i] = "∅"
		} else {
			parts[i] = fmt.Sprintf("%v", v)
		}
	}
	return strings.Join(parts, "|")
}

// Compare is the one "same rows?" rule: it returns nil when got answers
// TPC-H query q with the rows of want. LIMIT queries are compared row by
// row on the columns their ORDER BY determines; every other query must
// agree on the full rows as a multiset (hash tables drain in worker order,
// so ties arrive in any order).
func Compare(q int, got *storage.Batch, want *Result) error {
	if got.Rows() != len(want.Rows) {
		return fmt.Errorf("q%d: got %d rows, want %d", q, got.Rows(), len(want.Rows))
	}
	if keys, limited := limitSortKeys[q]; limited {
		for i, w := range want.Rows {
			g := got.Row(i)
			for _, k := range keys {
				if gs, ws := fmt.Sprintf("%v", g[k]), fmt.Sprintf("%v", w[k]); gs != ws {
					return fmt.Errorf("q%d row %d col %d: got %s want %s", q, i, k, gs, ws)
				}
			}
		}
		return nil
	}
	gotS := make([]string, len(want.Rows))
	wantS := make([]string, len(want.Rows))
	for i, w := range want.Rows {
		gotS[i] = formatRow(got.Row(i))
		wantS[i] = formatRow(w)
	}
	sort.Strings(gotS)
	sort.Strings(wantS)
	for i := range gotS {
		if gotS[i] != wantS[i] {
			return fmt.Errorf("q%d: result mismatch (row %d after sort)\ngot:  %s\nwant: %s", q, i, gotS[i], wantS[i])
		}
	}
	return nil
}
