package hsqp

import (
	"context"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:          2,
		WorkersPerServer: 2,
		Transport:        RDMA,
		Scheduling:       true,
		TimeScale:        0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.LoadTPCH(GenerateTPCH(0.005, 42), false)

	res, stats, err := c.RunContext(context.Background(), TPCHQuery(6, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1 || res.Cols[0].I64[0] <= 0 {
		t.Fatalf("Q6 result: %v", res.Row(0))
	}
	if stats.Duration <= 0 {
		t.Fatal("no duration measured")
	}
	if out := ExplainQuery(TPCHQuery(17, 1)); !strings.Contains(out, "groupjoin") {
		t.Fatalf("explain: %s", out)
	}
	if TwoSocketTopology().Sockets != 2 || FourSocketTopology().Sockets != 4 {
		t.Fatal("topology helpers broken")
	}
}
