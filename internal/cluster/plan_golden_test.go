package cluster

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/exchange"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_golden.txt from the current compiler")

const planGoldenFile = "testdata/plan_golden.txt"

// renderGraph prints one server's compiled pipeline DAG: per pipeline its
// name, coordinator-only flag, dependency edges, source (exchange
// id, classic lanes, reused decode targets), operators and sink.
func renderGraph(cp *plan.Compiled) string {
	var b strings.Builder
	for i, p := range cp.Pipelines {
		fmt.Fprintf(&b, "%d %q coord=%t deps=%v\n", i, p.Name, p.CoordinatorOnly, cp.Deps[i])
		if s, ok := p.Source.(*exchange.Source); ok {
			fmt.Fprintf(&b, "  source exchange(%d) classic=%t reuse=%t\n", s.Recv.ExID(), s.Classic, s.Reuses())
		} else {
			fmt.Fprintf(&b, "  source %T\n", p.Source)
		}
		for _, o := range p.Ops {
			fmt.Fprintf(&b, "  op %s\n", opLabel(o))
		}
		fmt.Fprintf(&b, "  sink %s\n", opLabel(p.Sink))
	}
	return b.String()
}

func opLabel(x any) string {
	if n, ok := x.(engine.NamedOp); ok {
		return fmt.Sprintf("%T %s", x, n.OpName())
	}
	return fmt.Sprintf("%T", x)
}

// TestCompiledPlanGolden pins every compiled TPC-H pipeline DAG — each
// query under each conformance options row, on 1 and 3 servers, under
// chunked and partitioned placement, per server — to one digest line in
// testdata/plan_golden.txt. A refactor of the compiler must leave every
// line alone; a deliberate plan change shows up as a reviewed diff of
// this file (regenerate with `make plan-golden`). A mismatch prints the
// graph's full rendering.
func TestCompiledPlanGolden(t *testing.T) {
	const sf = 0.01
	db := tpch.Generate(sf, 42)
	var got []string
	rendered := map[string]string{}
	for _, servers := range []int{1, 3} {
		for _, partitioned := range []bool{false, true} {
			c := newTPCHClusterN(t, servers)
			c.LoadTPCH(db, partitioned)
			placement := "chunked"
			if partitioned {
				placement = "partitioned"
			}
			c.memMu.RLock()
			for _, row := range slices.Sorted(maps.Keys(conformanceOptions)) {
				for _, qn := range queries.All() {
					compiled, release := compileTPCH(t, c, qn, sf, conformanceOptions[row])
					for sid, cp := range compiled {
						key := fmt.Sprintf("q%02d %s servers=%d %s server=%d", qn, row, servers, placement, sid)
						r := renderGraph(cp)
						rendered[key] = r
						got = append(got, fmt.Sprintf("%s %x", key, sha256.Sum256([]byte(r))))
					}
					release()
				}
			}
			c.memMu.RUnlock()
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(planGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(planGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with `make plan-golden`)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d graphs, the compiler produced %d", len(want), len(got))
	}
	for _, line := range got {
		i := strings.LastIndexByte(line, ' ')
		key, sum := line[:i], line[i+1:]
		if want[key] != sum {
			t.Errorf("%s: digest %s, golden %q; the graph now reads:\n%s", key, sum, want[key], rendered[key])
		}
	}
}
