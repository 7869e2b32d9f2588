package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/queries"
	"hsqp/internal/report"
	"hsqp/internal/sim"
)

// chaos measures per-query fault tolerance end to end: a 3-server cluster
// (replica factor 2) loses one server mid-Q12 — killed, hung, or
// partitioned — and the coordinator detects the loss, evicts the server,
// and transparently restarts the query on the survivors. Reported per
// fault kind: the undisturbed baseline latency, the end-to-end latency of
// the run that absorbed the fault (detection + restart included), and the
// restart count. A final elasticity phase times online
// AddServer/RemoveServer membership changes (epoch bump + mesh rebuild +
// re-partitioning every table). SF 0.01, 0.02 under -full.
func chaos(w io.Writer, a Args) error {
	const query = 12
	wl := Workload{SF: 0.01}
	if a.Full {
		wl.SF = 0.02
	}
	newCluster := func(hook func(sim.QueryPhase)) (*cluster.Cluster, error) {
		cfg := Setup{TimeScale: 0.005}.config(cluster.RDMA, true)
		cfg.MorselSize = 4096
		cfg.MessageSize = 64 * 1024
		cfg.ReplicaFactor = 2
		cfg.HeartbeatInterval = 5 * time.Millisecond
		cfg.HeartbeatTimeout = 250 * time.Millisecond
		cfg.PhaseHook = hook
		return load(cfg, wl.fill)
	}
	q := queries.MustBuild(query, queries.Params{SF: wl.SF})
	ctx := context.Background()

	tab := &report.Table{
		Title: fmt.Sprintf("Per-query fault tolerance (SF %g, q%d, 3 servers, replica factor 2)",
			wl.SF, query),
		Header: []string{"fault", "baseline", "with failover", "restarts", "survivors"},
	}
	for _, kind := range []sim.FaultKind{sim.FaultKill, sim.FaultHang, sim.FaultPartition} {
		// Baseline: the same query, no fault, on a cluster of its own —
		// sim.FaultInjector fires once, at the executing phase of the
		// first run it sees.
		base, err := newCluster(nil)
		if err != nil {
			return err
		}
		var bstats cluster.QueryStats
		for run := 0; run < 2 && err == nil; run++ { // the first run warms
			_, bstats, err = base.RunContext(ctx, q)
		}
		base.Close()
		if err != nil {
			return err
		}

		var inj *sim.FaultInjector
		cl, err := newCluster(func(p sim.QueryPhase) { inj.OnPhase(p) })
		if err != nil {
			return err
		}
		inj = sim.NewFaultInjector(cl, sim.FaultPlan{Kind: kind, Server: 2, Phase: sim.PhaseExecuting})
		t0 := time.Now()
		_, stats, err := cl.RunContext(ctx, q)
		wall := time.Since(t0)
		survivors := cl.Servers()
		cl.Close()
		if err != nil {
			return fmt.Errorf("chaos %v: %w", kind, err)
		}
		if stats.Restarts == 0 {
			return fmt.Errorf("chaos %v: query was never disturbed", kind)
		}
		tab.Add(kind.String(), report.Dur(bstats.Duration), report.Dur(wall),
			fmt.Sprintf("%d", stats.Restarts), fmt.Sprintf("%d", survivors))
	}

	// Elasticity: time the online membership changes on a loaded cluster.
	cl, err := newCluster(nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	t0 := time.Now()
	id, err := cl.AddServer()
	if err != nil {
		return err
	}
	join := time.Since(t0)
	if _, _, err := cl.RunContext(ctx, q); err != nil {
		return fmt.Errorf("post-join run: %w", err)
	}
	t0 = time.Now()
	if err := cl.RemoveServer(id); err != nil {
		return err
	}
	removal := time.Since(t0)
	if _, _, err := cl.RunContext(ctx, q); err != nil {
		return fmt.Errorf("post-removal run: %w", err)
	}

	tab.Fprint(w)
	fmt.Fprintf(w, "online membership change: join %s, graceful removal %s (epoch bump + mesh rebuild + re-partition)\n",
		report.Dur(join), report.Dur(removal))
	return nil
}
