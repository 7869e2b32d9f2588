package bench

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hsqp/internal/cluster"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/storage"
)

// fusionLimitSortKeys mirrors the conformance convention from
// internal/queries: for queries with LIMIT, only the columns fully
// determined by the ORDER BY are comparable across engines — ties below
// the limit boundary may legitimately differ in the remaining columns.
var fusionLimitSortKeys = map[int][]int{
	2:  {0},    // s_acctbal (desc)
	3:  {1, 2}, // revenue, o_orderdate
	10: {2},    // revenue
	18: {4, 3}, // o_totalprice, o_orderdate
	21: {1},    // numwait
}

// canonicalCols renders the given columns of every row, sorts the rendered
// rows and concatenates them — CanonicalRows restricted to a column subset.
func canonicalCols(b *storage.Batch, cols []int) []byte {
	rows := make([]string, b.Rows())
	for i := range rows {
		parts := make([]string, len(cols))
		for j, c := range cols {
			parts[j] = fmt.Sprintf("%v", b.Cols[c].Value(i))
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return []byte(strings.Join(rows, "\n"))
}

// TestFusionPushdownConformance is the acceptance check for the fused hot
// path: every TPC-H query must produce byte-identical canonical results
// under the default engine (operator fusion + column pruning below
// exchanges) and under the -nofuse/-nopushdown ablation, and the
// explain-analyze output of the fused run must report per-operator rows
// and time for every plan.
func TestFusionPushdownConformance(t *testing.T) {
	db := DB(0.01, 42)
	newC := func(ablation bool) *cluster.Cluster {
		c, err := cluster.New(cluster.Config{
			Servers:          3,
			WorkersPerServer: 4,
			Transport:        cluster.RDMA,
			Scheduling:       true,
			TimeScale:        0.005,
			MorselSize:       4096,
			MessageSize:      64 * 1024,
			NoFuse:           ablation,
			NoPushdown:       ablation,
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		t.Cleanup(c.Close)
		c.LoadTPCH(db, false)
		return c
	}
	fused, ablated := newC(false), newC(true)

	for _, qn := range queries.All() {
		qn := qn
		t.Run(fmt.Sprintf("q%02d", qn), func(t *testing.T) {
			q := queries.MustBuild(qn, queries.Params{SF: 0.01})
			got, stats, err := fused.RunContext(context.Background(), q)
			if err != nil {
				t.Fatalf("fused q%d: %v", qn, err)
			}
			want, _, err := ablated.RunContext(context.Background(), queries.MustBuild(qn, queries.Params{SF: 0.01}))
			if err != nil {
				t.Fatalf("ablated q%d: %v", qn, err)
			}
			if got.Rows() != want.Rows() {
				t.Fatalf("q%d: fused %d rows, ablated %d", qn, got.Rows(), want.Rows())
			}
			var g, w []byte
			if keys, limited := fusionLimitSortKeys[qn]; limited {
				g, w = canonicalCols(got, keys), canonicalCols(want, keys)
			} else {
				g, w = CanonicalRows(got), CanonicalRows(want)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("q%d: fused result differs from ablation (%d vs %d canonical bytes)",
					qn, len(g), len(w))
			}
			// The analyze output must profile every executed operator.
			ea := plan.ExplainAnalyze(q, stats.PipelineStats)
			if !strings.Contains(ea, "rows in=") || !strings.Contains(ea, "time=") {
				t.Fatalf("q%d: explain analyze lacks per-operator rows/time:\n%s", qn, ea)
			}
		})
	}
}

// TestPushdownWireReduction pins the wire-byte win of pushing projections
// below exchange sends: a shuffle join whose probe relation drags a wide
// pad column it never outputs must ship at least 20% fewer bytes with
// pruning enabled. Byte counts come from the query's own exchange sends
// (QueryStats.WireBytes), so they are exact and deterministic.
func TestPushdownWireReduction(t *testing.T) {
	build, probe := buildSkewTables(60_000, 6_000, 0) // uniform keys: pure pushdown, no skew handling
	run := func(noPushdown bool) (rows int, wire uint64) {
		c, err := cluster.New(cluster.Config{
			Servers:          3,
			WorkersPerServer: 4,
			Transport:        cluster.TCPGbE,
			Scheduling:       true,
			TimeScale:        0.005,
			NoPushdown:       noPushdown,
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		defer c.Close()
		c.LoadTable("skew_build", build, storage.PlacementChunked, 0)
		c.LoadTable("skew_probe", probe, storage.PlacementChunked, 0)
		res, stats, err := c.RunContext(context.Background(), skewQuery(plan.PartitionBoth))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows(), stats.WireBytes()
	}
	rowsOn, wireOn := run(false)
	rowsOff, wireOff := run(true)
	if rowsOn != rowsOff || rowsOn == 0 {
		t.Fatalf("result drift: %d rows with pushdown, %d without", rowsOn, rowsOff)
	}
	if wireOn == 0 || wireOff == 0 {
		t.Fatalf("missing wire-byte accounting: %d with pushdown, %d without", wireOn, wireOff)
	}
	t.Logf("wire bytes: %d with pushdown, %d without (%.1f%% reduction)",
		wireOn, wireOff, 100*(1-float64(wireOn)/float64(wireOff)))
	if float64(wireOn) > 0.8*float64(wireOff) {
		t.Fatalf("pushdown saved <20%%: %d vs %d bytes", wireOn, wireOff)
	}
}
