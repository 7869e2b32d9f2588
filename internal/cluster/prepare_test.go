package cluster

import (
	"context"
	"strings"
	"testing"

	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// TestPreparedStatement: a prepared query runs repeatedly with results
// identical to ad-hoc execution, and reloading a table bumps the cluster
// epoch so the handle reports itself stale.
func TestPreparedStatement(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 3, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	q := groupByQueryPlan()
	direct, _, err := c.RunContext(context.Background(), q)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want := rowSet(direct)

	p, err := c.Prepare(groupByQueryPlan())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if p.Schema() == nil {
		t.Fatal("prepared statement has no schema")
	}
	if p.Epoch() != c.Epoch() {
		t.Fatalf("prepared at epoch %d, cluster at %d", p.Epoch(), c.Epoch())
	}
	for i := 0; i < 3; i++ {
		res, _, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatalf("prepared run %d: %v", i, err)
		}
		got := rowSet(res)
		if len(got) != len(want) {
			t.Fatalf("prepared run %d: %d rows, want %d", i, len(got), len(want))
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("prepared run %d row %d: %q != %q", i, r, got[r], want[r])
			}
		}
		if p.Stale() {
			t.Fatalf("prepared statement stale after run %d without reload", i)
		}
	}

	// A prepare must not leak per-query routing state (it compiles then
	// immediately closes the query id on every server).
	for _, n := range c.Nodes {
		ex, pend := n.Mux.TableSizes()
		if ex != 0 || pend != 0 {
			t.Fatalf("server %d holds %d exchanges, %d pending after prepared runs; want 0/0", n.ID, ex, pend)
		}
	}

	// Reloading data invalidates: epoch moves, handle turns stale.
	before := c.Epoch()
	c.LoadTable("orders", testOrders(600), storage.PlacementChunked, 0)
	if c.Epoch() == before {
		t.Fatal("LoadTable did not bump the cluster epoch")
	}
	if !p.Stale() {
		t.Fatal("prepared statement not stale after table reload")
	}
}

// TestPrepareUnknownTable: prepare surfaces compile errors up front without
// leaking query state.
func TestPrepareUnknownTable(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, true)
	if _, err := c.Prepare(groupByQueryPlan()); err == nil {
		t.Fatal("prepare against missing table succeeded, want error")
	}
	for _, n := range c.Nodes {
		ex, pend := n.Mux.TableSizes()
		if ex != 0 || pend != 0 {
			t.Fatalf("server %d holds %d exchanges, %d pending after failed prepare; want 0/0", n.ID, ex, pend)
		}
	}
}

// TestPreparedRemembersOptions: the options a statement was prepared with
// apply to every execution of the handle, and options given at run time
// come after them.
func TestPreparedRemembersOptions(t *testing.T) {
	c := newTestCluster(t, 3, RDMA, true)
	c.LoadTable("orders", testOrders(500), storage.PlacementChunked, 0)
	p, err := c.Prepare(groupByQueryPlan(), WithPlan(plan.Options{Classic: true}))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	sinks := func(stats QueryStats) string {
		var names []string
		for _, ps := range stats.PipelineStats[1] {
			names = append(names, ps.SinkName)
		}
		return strings.Join(names, ",")
	}
	_, stats, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sinks(stats); !strings.Contains(got, "send(classic-partition)") {
		t.Fatalf("handle prepared with Classic ran sinks %s", got)
	}
	_, stats, err = p.RunContext(context.Background(), WithPlan(plan.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := sinks(stats); strings.Contains(got, "classic") {
		t.Fatalf("run-time WithPlan did not override the prepared options: sinks %s", got)
	}
}
