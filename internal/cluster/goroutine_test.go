package cluster

import (
	"context"
	"maps"
	"testing"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/leakcheck"
	"hsqp/internal/storage"
)

// TestGoroutineBudget pins what a running mesh costs in goroutines: per
// server one multiplexer network loop, one fabric delivery goroutine (which
// also runs the endpoint's completions) and the engine's workers; per
// cluster one switch goroutine and one failure detector. The endpoints
// start none of their own. A query in flight adds one goroutine per server,
// its run: the caller, a failing server and the detector abort it through
// context.AfterFunc, which starts none.
func TestGoroutineBudget(t *testing.T) {
	const servers, workers = 3, 2
	before := leakcheck.Snapshot()
	c, err := New(Config{
		Servers:          servers,
		WorkersPerServer: workers,
		Transport:        TCPGbE,
		TimeScale:        0.01,
		Rate:             fabric.IB4xQDR,
		// The frozen coordinator below must not be declared lost.
		HeartbeatTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := map[string]int{
		"hsqp/internal/mux.(*Mux).networkLoop":        servers,
		"hsqp/internal/fabric.(*Fabric).deliveryPump": servers,
		"hsqp/internal/engine.(*Engine).workerLoop":   servers * workers,
		"hsqp/internal/fabric.(*Fabric).switchPump":   1,
		"hsqp/internal/cluster.(*detector).run":       1,
	}
	if got := leakcheck.Grown(before, want); !maps.Equal(got, want) {
		t.Fatalf("goroutines started by cluster.New:\n%s\nwant:\n%s", got, leakcheck.Counts(want))
	}

	// A frozen coordinator sends nothing, so every server's run waits for
	// its rows until it thaws.
	c.LoadTable("orders", testOrders(2000), storage.PlacementChunked, 0)
	mesh := leakcheck.Snapshot()
	c.Nodes[0].Mux.Freeze(true)
	done := make(chan error, 1)
	go func() {
		_, _, err := c.RunContext(context.Background(), groupByQueryPlan())
		done <- err
	}()
	want = map[string]int{
		"hsqp/internal/cluster.TestGoroutineBudget.func1":   1, // the caller above
		"hsqp/internal/cluster.(*Cluster).runAttempt.func3": servers,
	}
	got := leakcheck.Grown(mesh, want)
	c.Nodes[0].Mux.Freeze(false)
	if err := <-done; err != nil {
		t.Fatalf("query after the thaw: %v", err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("goroutines of a query in flight:\n%s\nwant:\n%s", got, leakcheck.Counts(want))
	}
}
