package queries

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hsqp/internal/cluster"
	"hsqp/internal/ref"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

const testSF = 0.01

var (
	dbOnce sync.Once
	testDB *tpch.Database
)

func getDB() *tpch.Database {
	dbOnce.Do(func() {
		testDB = tpch.Generate(testSF, 42)
	})
	return testDB
}

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

func batchRows(b *storage.Batch) [][]any {
	out := make([][]any, b.Rows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

func compareResults(t *testing.T, q int, got *storage.Batch, want *ref.Result) {
	t.Helper()
	gotRows := batchRows(got)
	if len(gotRows) != len(want.Rows) {
		t.Fatalf("q%d: got %d rows, want %d\nfirst got: %v\nfirst want: %v",
			q, len(gotRows), len(want.Rows), head(gotRows), headRef(want.Rows))
	}
	if keys, limited := limitSortKeys[q]; limited {
		for i := range gotRows {
			for _, k := range keys {
				g := fmt.Sprintf("%v", gotRows[i][k])
				w := fmt.Sprintf("%v", want.Rows[i][k])
				if g != w {
					t.Fatalf("q%d row %d col %d: got %s want %s", q, i, k, g, w)
				}
			}
		}
		// The full row set must still agree as a multiset on the sort-key
		// columns (already checked positionally), so nothing more here.
		return
	}
	// Unlimited queries: compare the full rows as ordered sets; the plans
	// and the reference sort identically, but hash iteration may produce
	// ties in different orders, so fall back to multiset comparison on
	// mismatch.
	gotS := make([]string, len(gotRows))
	wantS := make([]string, len(want.Rows))
	for i := range gotRows {
		gotS[i] = formatRow(gotRows[i])
		wantS[i] = formatRow(want.Rows[i])
	}
	ordered := true
	for i := range gotS {
		if gotS[i] != wantS[i] {
			ordered = false
			break
		}
	}
	if ordered {
		return
	}
	g2 := append([]string{}, gotS...)
	w2 := append([]string{}, wantS...)
	sort.Strings(g2)
	sort.Strings(w2)
	for i := range g2 {
		if g2[i] != w2[i] {
			t.Fatalf("q%d: result mismatch (row %d after sort)\ngot:  %s\nwant: %s", q, i, g2[i], w2[i])
		}
	}
}

func head(rows [][]any) string {
	if len(rows) == 0 {
		return "<none>"
	}
	return formatRow(rows[0])
}

func headRef(rows []ref.Row) string {
	if len(rows) == 0 {
		return "<none>"
	}
	return formatRow(rows[0])
}

func newCluster(t testing.TB, servers int, classic bool) *cluster.Cluster {
	c, err := cluster.New(cluster.Config{
		Servers:          servers,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		Classic:          classic,
		TimeScale:        0.005, // conformance tests: network nearly free
		MorselSize:       4096,
		MessageSize:      64 * 1024,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func runConformance(t *testing.T, servers int, partitioned, classic bool) {
	db := getDB()
	c := newCluster(t, servers, classic)
	c.LoadTPCH(db, partitioned)
	for _, q := range All() {
		q := q
		t.Run(fmt.Sprintf("q%02d", q), func(t *testing.T) {
			plan := MustBuild(q, Params{SF: testSF})
			got, _, err := c.RunContext(context.Background(), plan)
			if err != nil {
				t.Fatalf("q%d: %v", q, err)
			}
			want, err := ref.Run(q, db, testSF)
			if err != nil {
				t.Fatalf("ref q%d: %v", q, err)
			}
			compareResults(t, q, got, want)
		})
	}
}

func TestTPCHSingleServer(t *testing.T)           { runConformance(t, 1, false, false) }
func TestTPCHDistributedChunked(t *testing.T)     { runConformance(t, 3, false, false) }
func TestTPCHDistributedPartitioned(t *testing.T) { runConformance(t, 3, true, false) }
func TestTPCHClassicExchange(t *testing.T)        { runConformance(t, 3, false, true) }
