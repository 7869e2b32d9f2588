package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hsqp/internal/op"
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

func newTPCHCluster(t *testing.T, serial bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Servers:          3,
		WorkersPerServer: 4,
		Transport:        RDMA,
		Scheduling:       true,
		Serial:           serial,
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

// TestDAGMatchesSerialTPCH is the acceptance gate of the DAG scheduler: a
// distributed TPC-H join query at SF 0.1 must produce identical results
// under DAG scheduling and under the old serial pipeline order, and the
// DAG run must actually overlap pipelines (≥ 2 concurrent on at least one
// server, overlap ratio > 0).
func TestDAGMatchesSerialTPCH(t *testing.T) {
	const sf = 0.1
	db := tpch.Generate(sf, 42)

	dag := newTPCHCluster(t, false)
	serial := newTPCHCluster(t, true)
	dag.LoadTPCH(db, false)
	serial.LoadTPCH(db, false)

	for _, qn := range []int{5, 12} {
		qn := qn
		t.Run(fmt.Sprintf("q%02d", qn), func(t *testing.T) {
			q := queries.MustBuild(qn, queries.Params{SF: sf})
			gotDAG, stats, err := dag.RunContext(context.Background(), q)
			if err != nil {
				t.Fatalf("dag run: %v", err)
			}
			qs := queries.MustBuild(qn, queries.Params{SF: sf})
			gotSerial, serialStats, err := serial.RunContext(context.Background(), qs)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}

			dagRows, serialRows := rowSet(gotDAG), rowSet(gotSerial)
			if len(dagRows) != len(serialRows) {
				t.Fatalf("q%d: dag %d rows, serial %d rows", qn, len(dagRows), len(serialRows))
			}
			for i := range dagRows {
				if dagRows[i] != serialRows[i] {
					t.Fatalf("q%d row %d differs:\n dag:    %s\n serial: %s", qn, i, dagRows[i], serialRows[i])
				}
			}

			if ov := stats.MaxOverlap(); ov <= 0 {
				t.Fatalf("q%d: DAG run shows no pipeline overlap (ratios %v)", qn, stats.ServerOverlap)
			}
			concurrent := stats.PeakConcurrentPipelines()
			if concurrent < 2 {
				t.Fatalf("q%d: peak concurrent pipelines %d, want ≥ 2", qn, concurrent)
			}
			t.Logf("q%d: dag=%v serial=%v overlap=%.2f peak-concurrency=%d",
				qn, stats.Duration, serialStats.Duration, stats.MaxOverlap(), concurrent)
		})
	}
}

// TestSerialModeHasNoOverlap pins the ablation semantics: under
// Config.Serial the chain graph forbids concurrent pipelines.
func TestSerialModeHasNoOverlap(t *testing.T) {
	orders := testOrders(2000)
	c := newTestCluster(t, 2, RDMA, false)
	// newTestCluster builds a DAG cluster; run the same query through a
	// serial cluster and compare overlap.
	s, err := New(Config{
		Servers:          2,
		WorkersPerServer: 4,
		Transport:        RDMA,
		Serial:           true,
		TimeScale:        0.01,
		MorselSize:       64,
		MessageSize:      8 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)
	s.LoadTable("orders", orders, storage.PlacementChunked, 0)

	want := expectedGroupSums(orders)
	for name, cl := range map[string]*Cluster{"dag": c, "serial": s} {
		got := runGroupByQuery(t, cl)
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
	root := plan.Scan("orders", orders.Schema).
		GroupBy([]string{"o_cust"},
			op.AggSpec{Kind: op.Sum, Name: "rev", Arg: op.Col(2), ArgType: storage.TDecimal})
	_, stats, err := s.RunContext(context.Background(), plan.NewQuery("serial-overlap-check", root))
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
