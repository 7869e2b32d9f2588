package queries

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hsqp/internal/cluster"
	"hsqp/internal/engine"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/ref"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

const testSF = 0.01

var (
	dbOnce sync.Once
	testDB *tpch.Database
)

func getDB() *tpch.Database {
	dbOnce.Do(func() {
		testDB = tpch.Generate(testSF, 42)
	})
	return testDB
}

func compareResults(t *testing.T, q int, got *storage.Batch, want *ref.Result) {
	t.Helper()
	if err := ref.Compare(q, got, want); err != nil {
		t.Fatal(err)
	}
}

func newCluster(t testing.TB, servers int) *cluster.Cluster {
	c, err := cluster.New(cluster.Config{
		Servers:          servers,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		TimeScale:        0.005, // conformance tests: network nearly free
		MorselSize:       4096,
		MessageSize:      64 * 1024,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

var refResults sync.Map // query number -> *ref.Result

// refResult returns (and caches) the reference engine's answer to q: the
// matrix asks for each one once per ablation.
func refResult(t *testing.T, q int) *ref.Result {
	t.Helper()
	if r, ok := refResults.Load(q); ok {
		return r.(*ref.Result)
	}
	want, err := ref.Run(q, getDB(), testSF)
	if err != nil {
		t.Fatalf("ref q%d: %v", q, err)
	}
	refResults.Store(q, want)
	return want
}

// ablation is one row of the conformance matrix.
type ablation struct {
	name string
	opts plan.Options
}

// ablations are every way a query's plan.Options can differ from the
// paper's engine (the first row), plus the nofuse rows (see unfused).
var ablations = []ablation{
	{"default", plan.Options{}},
	{"classic", plan.Options{Classic: true}},
	{"serial", plan.Options{Serial: true}},
	{"no-preagg", plan.Options{DisablePreAgg: true}},
	{"nofuse", unfused(plan.Options{})},
	{"nopushdown", plan.Options{NoPushdown: true}},
	{"nofuse+nopushdown", unfused(plan.Options{NoPushdown: true})},
}

// unfused puts a MapOp, a Filter and a Project after every scan and
// exchange receive, each hidden from the compiler's fusion pass so it runs
// through its own Process (a one-step fused stage). Together they keep
// every row and column: the map appends a zero, the filter keeps the rows
// where it is zero, the projection drops it. The nofuse rows thus run the
// standalone operators over every schema and morsel the queries produce,
// and feed their fresh batches into the plan's fused stages.
func unfused(po plan.Options) plan.Options {
	standalone := func(in *storage.Schema) []engine.Op {
		n := len(in.Fields)
		m := op.NewMap(in, []op.NamedExpr{{Name: "zero", Type: storage.TInt64, Expr: op.ConstI(0)}})
		keep := make([]int, n)
		for i := range keep {
			keep[i] = i
		}
		return []engine.Op{
			unfusible{m},
			unfusible{&op.Filter{Pred: op.I64EQ(n, 0)}},
			unfusible{op.NewProject(m.Schema, keep)},
		}
	}
	po.AfterScan = standalone
	po.AfterExchange = standalone
	return po
}

// unfusible hides an operator's type from the compiler's fusion pass.
type unfusible struct{ engine.Op }

// runConformance is the conformance floor: every given ablation × every
// query returns the rows of internal/ref, on one loaded cluster — the
// ablations are per-query options, so they share placements, pools and
// mesh. The explain-analyze output of every run must profile its operators.
func runConformance(t *testing.T, servers int, partitioned bool, rows []ablation) {
	c := newCluster(t, servers)
	c.LoadTPCH(getDB(), partitioned)
	for _, a := range rows {
		a := a
		t.Run(a.name, func(t *testing.T) {
			for _, q := range All() {
				q := q
				t.Run(fmt.Sprintf("q%02d", q), func(t *testing.T) {
					qp := MustBuild(q, Params{SF: testSF})
					got, stats, err := c.RunContext(context.Background(), qp, cluster.WithPlan(a.opts))
					if err != nil {
						t.Fatalf("q%d: %v", q, err)
					}
					compareResults(t, q, got, refResult(t, q))
					ea := plan.ExplainAnalyze(qp, stats.PipelineStats)
					if !strings.Contains(ea, "rows in=") || !strings.Contains(ea, "time=") {
						t.Fatalf("q%d: explain analyze lacks per-operator rows/time:\n%s", q, ea)
					}
					if a.opts.Serial && stats.MaxOverlap() != 0 {
						t.Fatalf("q%d: serial run reports overlap %v, want 0", q, stats.MaxOverlap())
					}
				})
			}
		})
	}
}

// TestQ9SmallScale runs the query that joins partsupp on its full key at a
// scale factor with few suppliers, where the generator once emitted
// duplicate (ps_partkey, ps_suppkey) rows and the engine's hash join and
// the reference's map lookup then disagreed.
func TestQ9SmallScale(t *testing.T) {
	const sf = 0.005
	db := tpch.Generate(sf, 42)
	c := newCluster(t, 3)
	c.LoadTPCH(db, false)
	got, _, err := c.RunContext(context.Background(), MustBuild(9, Params{SF: sf}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(9, db, sf)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, 9, got, want)
}

func TestTPCHSingleServer(t *testing.T)           { runConformance(t, 1, false, ablations[:1]) }
func TestTPCHDistributedChunked(t *testing.T)     { runConformance(t, 3, false, ablations) }
func TestTPCHDistributedPartitioned(t *testing.T) { runConformance(t, 3, true, ablations) }

// TestMixedOptionsConcurrently is what per-query options newly allow: a
// classic and a hybrid compilation of the same statements run at the same
// time on one cluster. Both must return the reference rows and leave no
// routing state behind on any multiplexer. No message may find its
// exchange closed: every server opens a query's exchanges before any runs
// it, and a healthy run drains them before CloseQuery, so a drop here
// means something was sent before its exchange opened or was never read.
func TestMixedOptionsConcurrently(t *testing.T) {
	c := newCluster(t, 3)
	c.LoadTPCH(getDB(), false)
	stmts := []int{3, 5, 12, 18}
	for _, q := range stmts {
		refResult(t, q) // fill the cache on the test goroutine
	}
	variants := []plan.Options{{}, {Classic: true}}
	got := make([][]*storage.Batch, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for v, po := range variants {
		got[v] = make([]*storage.Batch, len(stmts))
		wg.Add(1)
		go func(v int, po plan.Options) {
			defer wg.Done()
			for i, q := range stmts {
				res, _, err := c.RunContext(context.Background(), MustBuild(q, Params{SF: testSF}), cluster.WithPlan(po))
				if err != nil {
					errs[v] = fmt.Errorf("q%d: %w", q, err)
					return
				}
				got[v][i] = res
			}
		}(v, po)
	}
	wg.Wait()
	for v := range variants {
		if errs[v] != nil {
			t.Fatalf("variant %d: %v", v, errs[v])
		}
		for i, q := range stmts {
			compareResults(t, q, got[v][i], refResult(t, q))
		}
	}
	for _, n := range c.Nodes {
		if ex := n.Mux.OpenExchanges(); ex != 0 {
			t.Fatalf("server %d holds %d exchanges after mixed runs; want 0", n.ID, ex)
		}
		if dropped := n.Mux.Stats().DroppedMsgs; dropped != 0 {
			t.Fatalf("server %d dropped %d messages in healthy runs; want 0", n.ID, dropped)
		}
	}
}
