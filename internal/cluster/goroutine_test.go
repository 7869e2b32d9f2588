package cluster

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/storage"
)

// goroutines counts this module's goroutines by the function each one runs
// (not by its creator: inlining renames a closure that starts one). A
// goroutine that has not run yet shows the compiler's wrapper (gowrap)
// instead, so it retries until every goroutine has started.
func goroutines() map[string]int {
	for deadline := time.Now().Add(5 * time.Second); ; {
		counts := stacks()
		started := true
		for k := range counts {
			started = started && !strings.Contains(k, ".gowrap")
		}
		if started || time.Now().After(deadline) {
			return counts
		}
		runtime.Gosched()
	}
}

func stacks() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	counts := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		var entry string // the outermost frame, runtime.goexit aside
		for _, line := range strings.Split(g, "\n")[1:] {
			if creator, ok := strings.CutPrefix(line, "created by "); ok {
				creator, _, _ = strings.Cut(creator, " in goroutine")
				if strings.HasPrefix(entry, "hsqp/") || strings.HasPrefix(creator, "hsqp/") {
					counts[entry]++
				}
				break
			}
			if fn := line[:max(strings.LastIndex(line, "("), 0)]; fn != "" && !strings.HasPrefix(line, "\t") && fn != "runtime.goexit" {
				entry = fn
			}
		}
	}
	return counts
}

// TestGoroutineBudget pins what a running mesh costs in goroutines: per
// server one multiplexer network loop, one fabric delivery goroutine (which
// also runs the endpoint's completions) and the engine's workers; per
// cluster one switch goroutine and one failure detector. The endpoints
// start none of their own. A query in flight adds one goroutine per server,
// its run: the caller, a failing server and the detector abort it through
// context.AfterFunc, which starts none.
func TestGoroutineBudget(t *testing.T) {
	const servers, workers = 3, 2
	var before map[string]int
	for deadline := time.Now().Add(5 * time.Second); ; {
		if before = goroutines(); len(before) == 0 || time.Now().After(deadline) {
			break // earlier tests' goroutines may still be exiting
		}
		time.Sleep(10 * time.Millisecond)
	}
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

	got := since(before)
	want := map[string]int{
		"hsqp/internal/mux.(*Mux).networkLoop":        servers,
		"hsqp/internal/fabric.(*Fabric).deliveryPump": servers,
		"hsqp/internal/engine.(*Engine).workerLoop":   servers * workers,
		"hsqp/internal/fabric.(*Fabric).switchPump":   1,
		"hsqp/internal/cluster.(*detector).run":       1,
	}
	if !maps.Equal(got, want) {
		t.Fatalf("goroutines started by cluster.New:\n%s\nwant:\n%s", render(got), render(want))
	}

	// A frozen coordinator sends nothing, so every server's run waits for
	// its rows until it thaws.
	c.LoadTable("orders", testOrders(2000), storage.PlacementChunked, 0)
	mesh := goroutines()
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
	for deadline := time.Now().Add(2 * time.Second); ; {
		if got = since(mesh); maps.Equal(got, want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Nodes[0].Mux.Freeze(false)
	if err := <-done; err != nil {
		t.Fatalf("query after the thaw: %v", err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("goroutines of a query in flight:\n%s\nwant:\n%s", render(got), render(want))
	}
}

// since returns the goroutines running now that were not in before.
func since(before map[string]int) map[string]int {
	got := goroutines()
	for k, n := range before {
		if got[k] -= n; got[k] == 0 {
			delete(got, k)
		}
	}
	return got
}

func render(counts map[string]int) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		fmt.Fprintf(&b, "\t%d × %s\n", counts[k], k)
	}
	return b.String()
}
