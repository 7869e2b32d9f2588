package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// rowSet renders a batch as order-independent, sorted row strings so DAG
// and serial executions can be compared exactly.
func rowSet(b *storage.Batch) []string {
	rows := make([]string, 0, b.Rows())
	for i := 0; i < b.Rows(); i++ {
		var sb strings.Builder
		for ci, col := range b.Cols {
			if ci > 0 {
				sb.WriteByte('|')
			}
			if col.IsNull(i) {
				sb.WriteString("∅")
				continue
			}
			switch col.Type {
			case storage.TString:
				sb.WriteString(col.Str[i])
			case storage.TFloat64:
				fmt.Fprintf(&sb, "%.6f", col.F64[i])
			default:
				fmt.Fprintf(&sb, "%d", col.I64[i])
			}
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return rows
}

func newTPCHCluster(t *testing.T) *Cluster {
	t.Helper()
	return newTPCHClusterN(t, 3)
}

// newTPCHClusterN is the TPC-H test deployment on the given number of
// servers, closed at the end of the test.
func newTPCHClusterN(t *testing.T, servers int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Servers:          servers,
		WorkersPerServer: 4,
		Transport:        RDMA,
		Scheduling:       true,
		TimeScale:        0.01,
		MorselSize:       4096,
		MessageSize:      64 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDAGOverlapsPipelinesTPCH is the acceptance gate of the DAG scheduler:
// a distributed TPC-H join query at SF 0.1 must actually overlap pipelines
// (≥ 2 concurrent on at least one server, overlap ratio > 0). That DAG and
// serial execution return the same rows — and that serial never overlaps —
// is the ablation matrix in internal/queries, on every query.
func TestDAGOverlapsPipelinesTPCH(t *testing.T) {
	const sf = 0.1
	c := newTPCHCluster(t)
	c.LoadTPCH(tpch.Generate(sf, 42), false)

	for _, qn := range []int{5, 12} {
		qn := qn
		t.Run(fmt.Sprintf("q%02d", qn), func(t *testing.T) {
			q := queries.MustBuild(qn, queries.Params{SF: sf})
			_, stats, err := c.RunContext(context.Background(), q)
			if err != nil {
				t.Fatalf("dag run: %v", err)
			}
			if ov := stats.MaxOverlap(); ov <= 0 {
				t.Fatalf("q%d: DAG run shows no pipeline overlap (ratios %v)", qn, stats.ServerOverlap)
			}
			concurrent := stats.PeakConcurrentPipelines()
			if concurrent < 2 {
				t.Fatalf("q%d: peak concurrent pipelines %d, want ≥ 2", qn, concurrent)
			}
			t.Logf("q%d: dag=%v overlap=%.2f peak-concurrency=%d",
				qn, stats.Duration, stats.MaxOverlap(), concurrent)
		})
	}
}

// TestSerialModeHasNoOverlap pins the ablation semantics: under
// plan.Options.Serial the chain graph forbids concurrent pipelines.
func TestSerialModeHasNoOverlap(t *testing.T) {
	orders := testOrders(2000)
	c := newTestCluster(t, 2, RDMA, false)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)
	serial := WithPlan(plan.Options{Serial: true})

	want := expectedGroupSums(orders)
	for name, opts := range map[string][]RunOption{"dag": nil, "serial": {serial}} {
		got := runGroupByQuery(t, c, opts...)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s group %d: got %d want %d", name, k, got[k], v)
			}
		}
	}

	// The name of the test: serial execution must report zero overlap and
	// never run two pipelines at once.
	_, stats, err := c.RunContext(context.Background(), groupByQueryPlan(), serial)
	if err != nil {
		t.Fatal(err)
	}
	if ov := stats.MaxOverlap(); ov != 0 {
		t.Fatalf("serial run reports overlap %v, want 0", ov)
	}
	if peak := stats.PeakConcurrentPipelines(); peak > 1 {
		t.Fatalf("serial run reports %d concurrent pipelines, want ≤ 1", peak)
	}
}
