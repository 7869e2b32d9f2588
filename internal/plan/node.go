// Package plan provides the logical query plan and the distributed plan
// compiler: it turns an operator tree into per-server morsel pipelines,
// inserting decoupled exchange operators where data must move — hash
// partitioning for joins and aggregations, broadcast when one join input
// is small (Figure 6(c)), pre-aggregation before reshuffling group-bys,
// and a final gather to the coordinator.
package plan

import (
	"fmt"

	"hsqp/internal/op"
	"hsqp/internal/storage"
)

// Kind enumerates logical operators.
type Kind int

const (
	// KScan reads a base relation fragment.
	KScan Kind = iota
	// KSelect filters rows.
	KSelect
	// KMap appends computed columns.
	KMap
	// KProject keeps/reorders columns.
	KProject
	// KJoin is a hash join (inner/leftouter/semi/anti).
	KJoin
	// KGroupBy is a hash aggregation.
	KGroupBy
	// KGroupJoin is HyPer's Γ⨝ (join+group-by on the same key).
	KGroupJoin
	// KTopK sorts and optionally limits.
	KTopK
)

// JoinStrategy selects how a distributed join moves data.
type JoinStrategy int

const (
	// AutoStrategy partitions both sides unless placement makes the join
	// co-located.
	AutoStrategy JoinStrategy = iota
	// BroadcastBuild replicates the build side to every server; the probe
	// side stays local. Beneficial when |build| < |probe| / (n−1) (§3.1).
	BroadcastBuild
	// PartitionBoth hash-partitions both inputs on the join keys.
	PartitionBoth
	// LocalJoin asserts the join is already co-located (placement).
	LocalJoin
	// SkewAdaptive hash-partitions both inputs but detects heavy probe
	// keys online (Space-Saving sketch over the first morsels, merged
	// cluster-wide): tuples of hot keys switch to a selective-broadcast
	// route — the build side of a hot key is replicated to every server
	// while its probe tuples stay on their origin server — and cold keys
	// keep hash partitioning. Tolerates Zipf-skewed join keys without a
	// straggler server; falls back to PartitionBoth under the classic
	// exchange-operator model.
	SkewAdaptive
)

// Node is a logical plan operator.
type Node struct {
	Kind   Kind
	schema *storage.Schema

	// Children: unary ops use In; KJoin/KGroupJoin use Build and Probe.
	In    *Node
	Build *Node
	Probe *Node

	// KScan
	Table string

	// KSelect
	Pred op.Pred

	// KMap
	Exprs []op.NamedExpr

	// KProject
	Cols []int

	// KJoin
	JoinType  op.JoinType
	BuildKeys []int
	ProbeKeys []int
	Residual  *op.Residual
	Strategy  JoinStrategy
	// ProbeOut/BuildOut select output columns (nil = all).
	ProbeOut []int
	BuildOut []int

	// KGroupBy / KGroupJoin
	Keys []int
	Aggs []op.AggSpec

	// KTopK
	SortKeys []op.SortKey
	Limit    int
}

// Schema returns the node's output schema.
func (n *Node) Schema() *storage.Schema { return n.schema }

// Col resolves a column name in the node's output schema.
func (n *Node) Col(name string) int { return n.schema.MustColIndex(name) }

// Scan creates a base-relation scan. The schema is the relation schema as
// stored (the catalog validates it at execution time).
func Scan(table string, schema *storage.Schema) *Node {
	return &Node{Kind: KScan, Table: table, schema: schema}
}

// Select filters with pred.
func (n *Node) Select(pred op.Pred) *Node {
	return &Node{Kind: KSelect, In: n, Pred: pred, schema: n.schema}
}

// Map appends computed columns.
func (n *Node) Map(exprs ...op.NamedExpr) *Node {
	m := op.NewMap(n.schema, exprs)
	return &Node{Kind: KMap, In: n, Exprs: exprs, schema: m.Schema}
}

// Project keeps the named columns in order.
func (n *Node) Project(names ...string) *Node {
	cols := make([]int, len(names))
	for i, nm := range names {
		cols[i] = n.Col(nm)
	}
	return n.ProjectCols(cols)
}

// ProjectCols keeps the given column indexes in order.
func (n *Node) ProjectCols(cols []int) *Node {
	return &Node{Kind: KProject, In: n, Cols: cols, schema: n.schema.Project(cols)}
}

// JoinSpec carries the optional knobs of a join. Residual is a
// non-equality condition over the key-matching pairs, e.g. Q20's
//
//	on := plan.On(ps, qtyPerPS)
//	on.Where(op.LT(op.Col(on.Build("sum_qty")), op.MulDec(op.Col(on.Probe("ps_availqty")), op.ConstI(20000))))
type JoinSpec struct {
	Type     op.JoinType
	Strategy JoinStrategy
	Residual *op.Residual
	// ProbeOut/BuildOut are output column names (nil = all columns).
	ProbeOut []string
	BuildOut []string
}

// JoinOn names the columns of a join residual by side.
type JoinOn struct {
	probe, build *Node
	cols         []op.ResidualCol
}

// On starts a residual for probe.Join(build, …).
func On(probe, build *Node) *JoinOn { return &JoinOn{probe: probe, build: build} }

// Probe adds a probe column to the residual's candidate batch and returns
// its index there, the one an op.Pred reads.
func (o *JoinOn) Probe(name string) int { return o.add(false, o.probe.Col(name)) }

// Build is Probe for a build column.
func (o *JoinOn) Build(name string) int { return o.add(true, o.build.Col(name)) }

func (o *JoinOn) add(build bool, c int) int {
	o.cols = append(o.cols, op.ResidualCol{Build: build, Col: c})
	return len(o.cols) - 1
}

// Where returns the residual pred over the columns added so far.
func (o *JoinOn) Where(pred op.Pred) *op.Residual { return &op.Residual{Pred: pred, Cols: o.cols} }

// Join hash-joins probe (receiver) with build on name-resolved keys.
// The receiver is the probe (streaming) side.
func (n *Node) Join(build *Node, probeKeys, buildKeys []string, spec JoinSpec) *Node {
	pk := make([]int, len(probeKeys))
	for i, k := range probeKeys {
		pk[i] = n.Col(k)
	}
	bk := make([]int, len(buildKeys))
	for i, k := range buildKeys {
		bk[i] = build.Col(k)
	}
	if len(pk) != len(bk) {
		panic(fmt.Sprintf("plan: join key arity mismatch %d vs %d", len(pk), len(bk)))
	}
	probeOut := resolveAll(n.schema, spec.ProbeOut)
	var buildOut []int
	if spec.Type == op.Inner || spec.Type == op.LeftOuter {
		buildOut = resolveAll(build.schema, spec.BuildOut)
	}
	// Output schema: probe columns, then build columns (nullable for
	// left outer).
	out := &storage.Schema{}
	for _, c := range probeOut {
		out.Fields = append(out.Fields, n.schema.Fields[c])
	}
	for _, c := range buildOut {
		f := build.schema.Fields[c]
		if spec.Type == op.LeftOuter {
			f.Nullable = true
		}
		out.Fields = append(out.Fields, f)
	}
	return &Node{
		Kind:      KJoin,
		Build:     build,
		Probe:     n,
		JoinType:  spec.Type,
		BuildKeys: bk,
		ProbeKeys: pk,
		Residual:  spec.Residual,
		Strategy:  spec.Strategy,
		ProbeOut:  probeOut,
		BuildOut:  buildOut,
		schema:    out,
	}
}

// GroupBy aggregates by the named key columns.
func (n *Node) GroupBy(keys []string, aggs ...op.AggSpec) *Node {
	kc := make([]int, len(keys))
	for i, k := range keys {
		kc[i] = n.Col(k)
	}
	return n.GroupByCols(kc, aggs...)
}

// GroupByCols aggregates by key column indexes.
func (n *Node) GroupByCols(keys []int, aggs ...op.AggSpec) *Node {
	out := &storage.Schema{}
	for _, k := range keys {
		out.Fields = append(out.Fields, n.schema.Fields[k])
	}
	for _, a := range aggs {
		out.Fields = append(out.Fields, a.ResultField())
	}
	return &Node{Kind: KGroupBy, In: n, Keys: keys, Aggs: aggs, schema: out}
}

// GroupJoin combines a join and a group-by on the same key: the receiver
// is the probe (aggregated) side, build the group side. Output: build
// columns then aggregate values, one row per matched build row.
func (n *Node) GroupJoin(build *Node, probeKeys, buildKeys []string, aggs ...op.AggSpec) *Node {
	pk := make([]int, len(probeKeys))
	for i, k := range probeKeys {
		pk[i] = n.Col(k)
	}
	bk := make([]int, len(buildKeys))
	for i, k := range buildKeys {
		bk[i] = build.Col(k)
	}
	out := &storage.Schema{Fields: append([]storage.Field{}, build.schema.Fields...)}
	for _, a := range aggs {
		out.Fields = append(out.Fields, a.ResultField())
	}
	return &Node{
		Kind:      KGroupJoin,
		Build:     build,
		Probe:     n,
		BuildKeys: bk,
		ProbeKeys: pk,
		Aggs:      aggs,
		schema:    out,
	}
}

// OrderBy sorts by the named columns; desc selects per-key direction.
func (n *Node) OrderBy(keys []op.SortKey, limit int) *Node {
	return &Node{Kind: KTopK, In: n, SortKeys: keys, Limit: limit, schema: n.schema}
}

func resolveAll(s *storage.Schema, names []string) []int {
	if names == nil {
		out := make([]int, s.Len())
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, len(names))
	for i, nm := range names {
		out[i] = s.MustColIndex(nm)
	}
	return out
}

// Query is a named root.
type Query struct {
	Name string
	Root *Node
}

// NewQuery wraps a plan root.
func NewQuery(name string, root *Node) *Query {
	return &Query{Name: name, Root: root}
}
