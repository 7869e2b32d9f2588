package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// dumpTables renders every node's installed table contents to a string —
// rows in storage order, all columns — so placements can be compared
// byte-for-byte across membership changes.
func dumpTables(t *testing.T, c *Cluster, names ...string) string {
	t.Helper()
	var sb strings.Builder
	for _, node := range c.Nodes {
		for _, name := range names {
			ti, err := node.lookup(name)
			if err != nil {
				t.Fatalf("server %d: %v", node.ID, err)
			}
			b := ti.Table.Flatten()
			fmt.Fprintf(&sb, "server %d table %s (%d rows, part=%v repl=%v)\n",
				node.ID, name, b.Rows(), ti.PartCols, ti.Replicated)
			for r := 0; r < b.Rows(); r++ {
				for ci, v := range b.Row(r) {
					if ci > 0 {
						sb.WriteByte('|')
					}
					fmt.Fprintf(&sb, "%v", v)
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// TestMembershipRoundTrip is the placement property test: growing the
// cluster by one server and then removing that server must round-trip to
// byte-identical per-node table contents, for every placement mode.
// Splits are pure functions of (source, server count), so the property is
// what makes transparent restart after a membership change sound.
func TestMembershipRoundTrip(t *testing.T) {
	placements := []struct {
		name      string
		placement storage.Placement
	}{
		{"chunked", storage.PlacementChunked},
		{"partitioned", storage.PlacementPartitioned},
		{"replicated", storage.PlacementReplicated},
	}
	for _, pc := range placements {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			c := newTestCluster(t, 3, RDMA, false)
			orders := testOrders(1000)
			c.LoadTableReplicas("orders", orders, pc.placement, 1, 2)

			before := dumpTables(t, c, "orders")
			epoch0 := c.Epoch()

			id, err := c.AddServer()
			if err != nil {
				t.Fatalf("AddServer: %v", err)
			}
			if id != 3 || c.Servers() != 4 {
				t.Fatalf("AddServer: got id %d, %d servers; want 3, 4", id, c.Servers())
			}
			if got := c.Epoch(); got != epoch0+1 {
				t.Fatalf("epoch after AddServer: got %d, want %d", got, epoch0+1)
			}
			// The enlarged membership must hold the full relation and answer
			// queries against it.
			mid := dumpTables(t, c, "orders")
			if mid == before {
				t.Fatalf("%s: placement unchanged after AddServer", pc.name)
			}
			if got := runGroupByQuery(t, c); len(got) != 7 {
				t.Fatalf("group-by on 4 servers: got %d groups, want 7", len(got))
			}

			if err := c.RemoveServer(id); err != nil {
				t.Fatalf("RemoveServer: %v", err)
			}
			if c.Servers() != 3 {
				t.Fatalf("after RemoveServer: %d servers, want 3", c.Servers())
			}
			if got := c.Epoch(); got != epoch0+2 {
				t.Fatalf("epoch after RemoveServer: got %d, want %d (monotonic, one bump per change)", got, epoch0+2)
			}

			after := dumpTables(t, c, "orders")
			if before != after {
				t.Fatalf("%s: AddServer→RemoveServer did not round-trip\nbefore:\n%s\nafter:\n%s",
					pc.name, head200(before), head200(after))
			}
			if got := runGroupByQuery(t, c); len(got) != 7 {
				t.Fatalf("group-by after round-trip: got %d groups, want 7", len(got))
			}
		})
	}
}

func head200(s string) string {
	if len(s) > 200 {
		return s[:200] + "…"
	}
	return s
}

// TestRemoveLastServerRefused pins the membership floor.
func TestRemoveLastServerRefused(t *testing.T) {
	c := newTestCluster(t, 1, RDMA, false)
	if err := c.RemoveServer(0); err == nil {
		t.Fatal("RemoveServer on a one-server cluster should be refused")
	}
}

// TestRunContextAcrossMembershipChange: queries issued after a change
// compile against the new membership and still answer correctly.
func TestRunContextAcrossMembershipChange(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", testOrders(500), storage.PlacementChunked, 0)
	want := expectedGroupSums(testOrders(500))

	check := func() {
		got := runGroupByQuery(t, c)
		if len(got) != len(want) {
			t.Fatalf("got %d groups, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("group %d: got %d, want %d", k, got[k], v)
			}
		}
	}
	check()
	if _, err := c.AddServer(); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	check()
	if err := c.RemoveServer(1); err != nil {
		t.Fatalf("RemoveServer: %v", err)
	}
	check()
}

// TestRunContextCancel pins the ctx plumbing of the redesigned API: a
// cancelled context aborts the query and surfaces a non-nil error without
// evicting anybody.
func TestRunContextCancel(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, false)
	c.LoadTable("orders", testOrders(2000), storage.PlacementChunked, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	schema := storage.NewSchema(
		storage.Field{Name: "o_key", Type: storage.TInt64},
		storage.Field{Name: "o_cust", Type: storage.TInt64},
		storage.Field{Name: "o_price", Type: storage.TDecimal},
	)
	root := plan.Scan("orders", schema).
		GroupBy([]string{"o_cust"})
	_, _, err := c.RunContext(ctx, plan.NewQuery("cancelled", root))
	if err == nil {
		t.Fatal("RunContext with cancelled ctx should fail")
	}
	if c.Servers() != 2 {
		t.Fatalf("cancellation must not evict servers: %d left", c.Servers())
	}
}

// TestAddServerOnClosedClusterLeaksNothing: AddServer builds the joiner's
// shell, worker pool included, before it takes the membership lock, so a
// change refused there must close it again.
func TestAddServerOnClosedClusterLeaksNothing(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, false)
	c.Close()
	before := goroutines()
	if _, err := c.AddServer(); err == nil {
		t.Fatal("AddServer on a closed cluster succeeded")
	}
	if got := since(before); len(got) != 0 {
		t.Fatalf("AddServer on a closed cluster left goroutines running:\n%s", render(got))
	}
}
