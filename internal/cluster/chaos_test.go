package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/sim"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

const (
	chaosSF               = 0.01
	chaosHeartbeatTimeout = 250 * time.Millisecond
)

var (
	chaosDBOnce sync.Once
	chaosDB     *tpch.Database
)

func getChaosDB() *tpch.Database {
	chaosDBOnce.Do(func() {
		chaosDB = tpch.Generate(chaosSF, 42)
	})
	return chaosDB
}

// newChaosCluster builds a 3-server cluster with replica factor 2 (every
// partition survives one server loss) and a fast failure detector, wired
// to the given phase hook.
func newChaosCluster(t *testing.T, scheduling bool, hook func(sim.QueryPhase)) *Cluster {
	t.Helper()
	c, err := New(Config{
		Servers:           3,
		WorkersPerServer:  4,
		Transport:         RDMA,
		Scheduling:        scheduling,
		TimeScale:         0.005, // chaos tests: network nearly free
		MorselSize:        4096,
		MessageSize:       64 * 1024,
		ReplicaFactor:     2,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  chaosHeartbeatTimeout,
		PhaseHook:         hook,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// renderRows formats a result set row by row for byte-identical
// comparison.
func renderRows(rows [][]any) string {
	var sb strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func refRows(t *testing.T, q int) string {
	t.Helper()
	want, err := ref.Run(q, getChaosDB(), chaosSF)
	if err != nil {
		t.Fatalf("ref q%d: %v", q, err)
	}
	rows := make([][]any, len(want.Rows))
	for i, r := range want.Rows {
		rows[i] = r
	}
	return renderRows(rows)
}

// chaosCase is one row of the single-fault table.
type chaosCase struct {
	kind sim.FaultKind
	// eager turns the round-robin schedule off: no barriers flow, so a
	// silent server is noticed only because the detector probes it.
	eager bool
	// idle injects the fault between queries instead of mid-query; the
	// next query must absorb it all the same.
	idle bool
	// q is the TPC-H query to run; Q12 when zero.
	q int
}

// runChaos executes a query against a cluster that loses one server
// (mid-query unless tc.idle) and asserts the failover was transparent: one
// restart, a 2-server surviving membership, and a result byte-identical to
// the reference interpreter's.
func runChaos(t *testing.T, tc chaosCase) {
	db := getChaosDB()
	kind := tc.kind
	qn := tc.q
	if qn == 0 {
		qn = 12
	}
	var inj *sim.FaultInjector
	c := newChaosCluster(t, !tc.eager, func(p sim.QueryPhase) {
		if !tc.idle {
			inj.OnPhase(p)
		}
	})
	// Kill server 2 — a non-coordinator — once execution is underway.
	inj = sim.NewFaultInjector(c, sim.FaultPlan{Kind: kind, Server: 2, Phase: sim.PhaseExecuting})
	c.LoadTPCH(db, false)
	if tc.eager {
		// Nothing flows on an idle unscheduled mesh: only the echoes of the
		// detector's own probes keep three healthy servers from looking dead.
		probes, suspicions := mDetectorProbes.Value(), mDetectorSuspicions.Value()
		time.Sleep(3 * chaosHeartbeatTimeout)
		if mDetectorProbes.Value() == probes {
			t.Fatal("idle eager mesh was never probed")
		}
		if mDetectorSuspicions.Value() != suspicions {
			t.Fatal("detector suspected a healthy idle server")
		}
	}
	if tc.idle {
		inj.OnPhase(sim.PhaseExecuting)
	}

	q := queries.MustBuild(qn, queries.Params{SF: chaosSF})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, stats, err := c.RunContext(ctx, q)
	if err != nil {
		t.Fatalf("RunContext under %v fault: %v", kind, err)
	}
	if !inj.Fired() {
		t.Fatal("fault injector never fired")
	}
	if injErr := inj.Err(); injErr != nil {
		t.Fatalf("fault injection: %v", injErr)
	}
	if stats.Restarts != 1 {
		t.Fatalf("QueryStats.Restarts = %d, want 1", stats.Restarts)
	}
	if c.Servers() != 2 {
		t.Fatalf("surviving membership has %d servers, want 2", c.Servers())
	}

	gotS := renderRows(batchRowsChaos(got))
	wantS := refRows(t, qn)
	if gotS != wantS {
		t.Fatalf("q%d after %v failover differs from reference\ngot:\n%s\nwant:\n%s", qn, kind, gotS, wantS)
	}

	// The shrunk cluster keeps serving: a fresh run (no fault left to
	// inject) must agree byte-for-byte too.
	got2, stats2, err := c.RunContext(ctx, q)
	if err != nil {
		t.Fatalf("post-failover run: %v", err)
	}
	if stats2.Restarts != 0 {
		t.Fatalf("post-failover Restarts = %d, want 0", stats2.Restarts)
	}
	if got2S := renderRows(batchRowsChaos(got2)); got2S != wantS {
		t.Fatalf("q%d on the shrunk cluster differs from reference\ngot:\n%s\nwant:\n%s", qn, got2S, wantS)
	}
}

func batchRowsChaos(b *storage.Batch) [][]any {
	out := make([][]any, b.Rows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

func TestChaosKillMidQuery(t *testing.T)      { runChaos(t, chaosCase{kind: sim.FaultKill}) }
func TestChaosHangMidQuery(t *testing.T)      { runChaos(t, chaosCase{kind: sim.FaultHang}) }
func TestChaosPartitionMidQuery(t *testing.T) { runChaos(t, chaosCase{kind: sim.FaultPartition}) }

// TestChaosKillAwaitingSemiJoinFilter kills a server as Q17 starts
// executing, before its build send can publish its semi-join filter: the
// survivors' schedulers hold their probe sends on a filter that will
// never merge. The failure must release them (the attempt is cancelled),
// and the restarted query must return the reference bytes. Q17's partkey
// join is the chunked TPC-H join whose filter has a round; the orderkey
// joins route by range and their local filters wait on no peer.
func TestChaosKillAwaitingSemiJoinFilter(t *testing.T) {
	runChaos(t, chaosCase{kind: sim.FaultKill, q: 17})
}

// TestChaosEager and TestChaosIdle run the same table off the detector's
// free ride: without a schedule there are no barriers to hear, and between
// queries there is no attempt whose own error could reveal the loss.
func TestChaosEager(t *testing.T) {
	for _, kind := range []sim.FaultKind{sim.FaultHang, sim.FaultPartition} {
		t.Run(kind.String(), func(t *testing.T) { runChaos(t, chaosCase{kind: kind, eager: true}) })
	}
}

func TestChaosIdle(t *testing.T) {
	for _, kind := range []sim.FaultKind{sim.FaultKill, sim.FaultHang, sim.FaultPartition} {
		t.Run(kind.String(), func(t *testing.T) { runChaos(t, chaosCase{kind: kind, idle: true}) })
	}
}

// TestChaosHangUnderConcurrentLoad hangs server 2 while a session keeps
// four mixed Q1/Q5/Q12 streams in flight. One detector serves all of them:
// every query either returns the reference bytes or a typed server-lost
// error, and the streams' failovers add up to exactly one eviction.
func TestChaosHangUnderConcurrentLoad(t *testing.T) {
	var inj *sim.FaultInjector
	c := newChaosCluster(t, true, func(p sim.QueryPhase) { inj.OnPhase(p) })
	inj = sim.NewFaultInjector(c, sim.FaultPlan{Kind: sim.FaultHang, Server: 2, Phase: sim.PhaseExecuting})
	c.LoadTPCH(getChaosDB(), false)
	want := map[int]string{}
	for _, q := range []int{1, 5, 12} {
		want[q] = refRows(t, q)
	}
	changes := mMembershipChanges.Value()

	s := c.NewSession(SessionConfig{MaxConcurrent: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for stream := 0; stream < 4; stream++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				q := []int{1, 5, 12}[(stream+i)%3]
				got, _, err := s.RunContext(ctx, queries.MustBuild(q, queries.Params{SF: chaosSF}))
				if err != nil {
					if !errors.Is(err, ErrServerLost) {
						t.Errorf("stream %d q%d: %v, want a result or ErrServerLost", stream, q, err)
					}
					continue
				}
				if gotS := renderRows(batchRowsChaos(got)); gotS != want[q] {
					t.Errorf("stream %d q%d differs from reference\ngot:\n%s\nwant:\n%s", stream, q, gotS, want[q])
				}
			}
		}(stream)
	}
	wg.Wait()
	s.Close()
	if !inj.Fired() {
		t.Fatal("fault injector never fired")
	}
	if got := mMembershipChanges.Value() - changes; got != 1 {
		t.Fatalf("%d membership changes, want exactly 1", got)
	}
	if c.Servers() != 2 {
		t.Fatalf("surviving membership has %d servers, want 2", c.Servers())
	}
}

// TestDetectorOffQueryPath pins "one detector per cluster, fed by the
// traffic the schedule already sends": on a scheduled cluster the barriers
// prove every peer alive each round, so fault-free queries cost (almost) no
// probes — fewer than one per query, where a watchdog per attempt sent at
// least two.
func TestDetectorOffQueryPath(t *testing.T) {
	c := newChaosCluster(t, true, nil)
	c.LoadTPCH(getChaosDB(), false)
	q12 := queries.MustBuild(12, queries.Params{SF: chaosSF})
	const n = 50
	probes := mDetectorProbes.Value()
	for i := 0; i < n; i++ {
		if _, stats, err := c.RunContext(context.Background(), q12); err != nil || stats.Restarts != 0 {
			t.Fatalf("fault-free run %d: restarts %d, err %v", i, stats.Restarts, err)
		}
	}
	got := mDetectorProbes.Value() - probes
	t.Logf("%d probes over %d fault-free queries", got, n)
	if got >= n {
		t.Fatalf("want fewer probes than queries")
	}
}

// TestChaosUnrecoverableWithoutReplicas pins the replica gate: with
// replica factor 1 a killed server's partitions exist nowhere else, so the
// restart must be refused and the error must say why.
func TestChaosUnrecoverableWithoutReplicas(t *testing.T) {
	var inj *sim.FaultInjector
	c, err := New(Config{
		Servers:           3,
		WorkersPerServer:  4,
		Transport:         RDMA,
		Scheduling:        true,
		TimeScale:         0.005,
		MorselSize:        4096,
		MessageSize:       64 * 1024,
		ReplicaFactor:     1,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		PhaseHook:         func(p sim.QueryPhase) { inj.OnPhase(p) },
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	inj = sim.NewFaultInjector(c, sim.FaultPlan{Kind: sim.FaultKill, Server: 2, Phase: sim.PhaseExecuting})
	c.LoadTPCH(getChaosDB(), false)

	q12 := queries.MustBuild(12, queries.Params{SF: chaosSF})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, _, err = c.RunContext(ctx, q12)
	if err == nil {
		t.Fatal("RunContext should fail: the lost partitions have no replicas")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("error should name the unrecoverable table, got: %v", err)
	}
	if c.Servers() != 3 {
		t.Fatalf("failed eviction must leave the membership intact, got %d servers", c.Servers())
	}
}
