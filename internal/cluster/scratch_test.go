package cluster

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/exchange"
	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// conformanceOptions are the option rows of the conformance matrix
// (runConformance in internal/queries); its nofuse rows only add unfused
// operators after scans and receives, which the compiler treats as
// retaining.
var conformanceOptions = map[string]plan.Options{
	"default":    {},
	"classic":    {Classic: true},
	"serial":     {Serial: true},
	"no-preagg":  {DisablePreAgg: true},
	"nopushdown": {NoPushdown: true},
}

// compileTPCH compiles query qn on every server of c and returns the
// per-server plans and a func that releases their exchange state.
func compileTPCH(t *testing.T, c *Cluster, qn int, sf float64, po plan.Options) ([]*plan.Compiled, func()) {
	t.Helper()
	qid := c.nextQueryID.Add(1)
	compiled, err := c.compileAll(c.Nodes, queries.MustBuild(qn, queries.Params{SF: sf}), qid, po)
	if err != nil {
		t.Fatalf("q%d: %v", qn, err)
	}
	return compiled, func() {
		for _, n := range c.Nodes {
			n.Mux.CloseQuery(qid)
		}
	}
}

// retained is this test's own reading of the retention rule: the batch an
// operator returns travels through fused stages (which may forward its
// columns zero-copy) until a JoinProbe copies it, and must then reach a
// sink that does not keep it.
func retained(rest []engine.Op, sink engine.Sink) bool {
	for _, o := range rest {
		switch o.(type) {
		case *op.JoinProbe:
			return false
		case *op.FusedStage:
		default:
			return true
		}
	}
	switch s := sink.(type) {
	case *exchange.Send:
		return s.Mode() == exchange.ModeSkewProbe
	case *op.GroupBy, *op.TopK, *op.GroupJoinProbe:
		return false
	}
	return true // JoinBuild, Collector, anything else
}

// TestNoReusedScratchUpstreamOfRetainingSink walks every compiled TPC-H
// graph, on every server of a 3-server cluster under every conformance
// options row: no reuse-mode FusedStage, JoinProbe or exchange receive may
// feed a sink that keeps its batches, because its columns are overwritten
// by the next morsel (or message) and handed to another query at pipeline
// completion. Every query's 3-server run must decode some receive into
// reused batches under every row, or the walk would check nothing there.
// No bare Filter, MapOp or Project may reach a pipeline: the compiler fuses
// every one of them.
func TestNoReusedScratchUpstreamOfRetainingSink(t *testing.T) {
	const sf = 0.01
	c := newTPCHCluster(t)
	c.LoadTPCH(tpch.Generate(sf, 42), false)
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	var fused, probes int
	for row, po := range conformanceOptions {
		for _, qn := range queries.All() {
			sources := 0
			compiled, release := compileTPCH(t, c, qn, sf, po)
			for sid, cp := range compiled {
				for _, p := range cp.Pipelines {
					if src, ok := p.Source.(*exchange.Source); ok && src.Reuses() {
						sources++
						if retained(p.Ops, p.Sink) {
							t.Errorf("%s q%d server %d: reuse-mode receive of %q feeds a retaining %T",
								row, qn, sid, p.Name, p.Sink)
						}
					}
					for i, o := range p.Ops {
						switch x := o.(type) {
						case *op.Filter, *op.MapOp, *op.Project:
							t.Errorf("%s q%d server %d: unfused %T in %q", row, qn, sid, o, p.Name)
							continue
						case *op.FusedStage:
							if !x.Reuses() {
								continue
							}
							fused++
						case *op.JoinProbe:
							if !x.Reuses() {
								continue
							}
							probes++
						default:
							continue
						}
						if retained(p.Ops[i+1:], p.Sink) {
							t.Errorf("%s q%d server %d: reuse-mode %T in %q feeds a retaining %T",
								row, qn, sid, o, p.Name, p.Sink)
						}
					}
				}
			}
			release()
			if sources == 0 {
				t.Errorf("%s q%d: no receive decodes into reused batches: the walk checked none", row, qn)
			}
		}
	}
	if fused == 0 || probes == 0 {
		t.Fatalf("the walk found %d reuse-mode fused stages and %d probes: it checked nothing", fused, probes)
	}
}

// scribble overwrites every slot of c up to its capacity.
func scribble(c *storage.Column) {
	i64, f64, str, valid := c.I64[:cap(c.I64)], c.F64[:cap(c.F64)], c.Str[:cap(c.Str)], c.Valid[:cap(c.Valid)]
	for i := range i64 {
		i64[i] = -7
	}
	for i := range f64 {
		f64[i] = -7
	}
	for i := range str {
		str[i] = "scribbled"
	}
	for i := range valid {
		valid[i] = false
	}
}

// TestPooledScratchOutlivesNoResult runs every TPC-H query on 3 servers
// and, after every server's graph completed — so every reuse-mode
// operator has given its columns back to its engine's pool — scribbles
// over every pooled column before it reads the coordinator's collected
// result. The result must still be internal/ref's.
func TestPooledScratchOutlivesNoResult(t *testing.T) {
	const sf = 0.01
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t)
	c.LoadTPCH(db, false)
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	scribbled := 0
	for _, qn := range queries.All() {
		t.Run(fmt.Sprintf("q%02d", qn), func(t *testing.T) {
			compiled, release := compileTPCH(t, c, qn, sf, plan.Options{})
			defer release()
			var wg sync.WaitGroup
			errs := make([]error, len(c.Nodes))
			for id, n := range c.Nodes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[id] = n.Engine.RunGraph(compiled[id].Graph(), engine.RunOptions{Coordinator: id == 0})
				}()
			}
			wg.Wait()
			for id, err := range errs {
				if err != nil {
					t.Fatalf("server %d: %v", id, err)
				}
			}
			for _, n := range c.Nodes {
				n.Engine.EachPooled(func(col *storage.Column) {
					scribbled++
					scribble(col)
				})
			}
			want, err := ref.Run(qn, db, sf)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Compare(qn, compiled[0].Result.Flatten(compiled[0].Schema), want); err != nil {
				t.Fatal(err)
			}
		})
	}
	if scribbled == 0 {
		t.Fatal("no column was ever pooled: the scribble checked nothing")
	}
}

// TestSemiJoinFilterEligibility pins which compiled TPC-H joins get a
// semi-join filter, from the plan alone: an inner join or group-join with
// its probe shuffled and a predicate below its build. Under CRC32 the
// build shuffles too, and the join opens one control exchange beyond its
// data exchanges and adds one round pipeline (its sink a SemiFilter), on
// every server alike. Under a range map the build stays where the map
// puts it and the filter is local: a filtered probe send, no control
// exchange, no round. Semi joins (Q4), builds over a whole relation (Q18)
// and the classic baseline get none. Under chunked placement the
// orderkey joins of Q3, Q5, Q8 and Q10 route by range (orders and
// lineitem lie in key order) with a local filter; Q17's partkey join
// keeps the round.
func TestSemiJoinFilterEligibility(t *testing.T) {
	const sf = 0.01
	c := newTPCHCluster(t)
	c.LoadTPCH(tpch.Generate(sf, 42), false)
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for _, row := range []struct {
		name  string
		po    plan.Options
		want  []int // a round
		local []int // a local filter
	}{
		{"default", plan.Options{}, []int{17}, []int{3, 5, 8, 10}},
		{"serial", plan.Options{Serial: true}, []int{17}, []int{3, 5, 8, 10}},
		{"classic", plan.Options{Classic: true}, nil, nil},
	} {
		var filtered, local []int
		for _, qn := range queries.All() {
			before := make([]int, len(c.Nodes))
			for sid, n := range c.Nodes {
				before[sid] = n.Mux.OpenExchanges()
			}
			compiled, release := compileTPCH(t, c, qn, sf, row.po)
			rounds, locals := -1, -1
			for sid, cp := range compiled {
				filters, probes, receives := 0, 0, 0
				for _, p := range cp.Pipelines {
					if _, ok := p.Sink.(*exchange.SemiFilter); ok {
						filters++
					}
					if s, ok := p.Sink.(*exchange.Send); ok && (s.Mode() != exchange.ModeGather || sid == 0) {
						receives++
					}
					if s, ok := p.Sink.(*exchange.Send); ok && s.Filtered() {
						probes++
					}
				}
				if locals >= 0 && probes-filters != locals {
					t.Errorf("%s q%d: server %d has %d local filters, server 0 %d", row.name, qn, sid, probes-filters, locals)
				}
				locals = probes - filters
				opened := c.Nodes[sid].Mux.OpenExchanges()
				if control := opened - before[sid] - receives; control != filters {
					t.Errorf("%s q%d server %d: %d control exchanges for %d filter rounds", row.name, qn, sid, control, filters)
				}
				if rounds >= 0 && filters != rounds {
					t.Errorf("%s q%d: server %d has %d filter rounds, server 0 %d", row.name, qn, sid, filters, rounds)
				}
				rounds = filters
			}
			release()
			if rounds > 0 {
				filtered = append(filtered, qn)
			}
			if locals > 0 {
				local = append(local, qn)
			}
		}
		if !slices.Equal(filtered, row.want) {
			t.Errorf("%s: semi-join filters on %v, want %v", row.name, filtered, row.want)
		}
		if !slices.Equal(local, row.local) {
			t.Errorf("%s: local semi-join filters on %v, want %v", row.name, local, row.local)
		}
	}
}
