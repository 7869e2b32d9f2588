package cluster

import (
	"context"
	"strings"
	"testing"

	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// TestPreparedStatement: a prepared query runs repeatedly with results
// identical to ad-hoc execution, leaks no routing state, and — holding no
// compiled state — follows a table reload like any other run.
func TestPreparedStatement(t *testing.T) {
	c := newTestCluster(t, 3, RDMA, true)
	c.LoadTable("orders", testOrders(500), storage.PlacementChunked, 0)

	p, err := c.Prepare(groupByQueryPlan())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if p.Schema() == nil {
		t.Fatal("prepared statement has no schema")
	}
	matchesDirect := func(label string) {
		t.Helper()
		direct, _, err := c.RunContext(context.Background(), groupByQueryPlan())
		if err != nil {
			t.Fatalf("%s: direct run: %v", label, err)
		}
		res, _, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: prepared run: %v", label, err)
		}
		got, want := rowSet(res), rowSet(direct)
		if len(got) != len(want) {
			t.Fatalf("%s: prepared run has %d rows, direct %d", label, len(got), len(want))
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("%s: row %d: %q != %q", label, r, got[r], want[r])
			}
		}
	}
	for i := 0; i < 3; i++ {
		matchesDirect("loaded")
	}

	// A prepare must not leak per-query routing state (it compiles then
	// immediately closes the query id on every server).
	for _, n := range c.Nodes {
		if ex := n.Mux.OpenExchanges(); ex != 0 {
			t.Fatalf("server %d holds %d exchanges after prepared runs; want 0", n.ID, ex)
		}
	}

	// The handle compiles on every run, so it sees reloaded data.
	c.LoadTable("orders", testOrders(600), storage.PlacementChunked, 0)
	matchesDirect("reloaded")
}

// TestPrepareUnknownTable: prepare surfaces compile errors up front without
// leaking query state.
func TestPrepareUnknownTable(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, true)
	if _, err := c.Prepare(groupByQueryPlan()); err == nil {
		t.Fatal("prepare against missing table succeeded, want error")
	}
	for _, n := range c.Nodes {
		if ex := n.Mux.OpenExchanges(); ex != 0 {
			t.Fatalf("server %d holds %d exchanges after failed prepare; want 0", n.ID, ex)
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
