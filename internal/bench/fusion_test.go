package bench

import (
	"context"
	"testing"

	"hsqp/internal/cluster"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// TestPushdownWireReduction pins the wire-byte win of pushing projections
// below exchange sends: a shuffle join whose probe relation drags a wide
// pad column it never outputs must ship at least 20% fewer bytes with
// pruning enabled. Both runs share one loaded cluster; byte counts come
// from the query's own exchange sends (QueryStats.WireBytes), so they are
// exact and deterministic. (Result identity under NoPushdown is the
// ablation matrix in internal/queries.)
func TestPushdownWireReduction(t *testing.T) {
	build, probe := buildSkewTables(60_000, 6_000, 0) // uniform keys: pure pushdown, no skew handling
	c, err := cluster.New(Setup{TimeScale: 0.005}.config(cluster.TCPGbE, true))
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	c.LoadTable("skew_build", build, storage.PlacementChunked, 0)
	c.LoadTable("skew_probe", probe, storage.PlacementChunked, 0)
	run := func(po plan.Options) (rows int, wire uint64) {
		res, stats, err := c.RunContext(context.Background(), skewQuery(plan.PartitionBoth), cluster.WithPlan(po))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows(), stats.WireBytes()
	}
	rowsOn, wireOn := run(plan.Options{})
	rowsOff, wireOff := run(plan.Options{NoPushdown: true})
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
