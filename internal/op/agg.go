package op

import (
	"cmp"
	"fmt"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// AggKind selects an aggregate function.
type AggKind int

const (
	// Sum adds the argument (int64/decimal or float).
	Sum AggKind = iota
	// Count counts rows (Arg nil) or non-NULL arguments.
	Count
	// Min keeps the smallest argument.
	Min
	// Max keeps the largest argument.
	Max
	// Avg divides the sum by the count (decimal or float).
	Avg
	// AvgMerge combines partial (sum, count) pairs — used by the final
	// stage of a distributed average; Arg is the sum column, Arg2 the
	// count column.
	AvgMerge
)

func (k AggKind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	case AvgMerge:
		return "avgmerge"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggSpec describes one aggregate output.
type AggSpec struct {
	Kind    AggKind
	Name    string
	Arg     Expr         // nil only for Count(*)
	Arg2    Expr         // AvgMerge: the partial count column
	ArgType storage.Type // type Arg is evaluated to, Count's too (drives arithmetic and output type)
}

// ResultField returns the output schema field of the aggregate.
func (a AggSpec) ResultField() storage.Field {
	switch a.Kind {
	case Count:
		return storage.Field{Name: a.Name, Type: storage.TInt64}
	case Avg, AvgMerge:
		t := a.ArgType
		if t != storage.TFloat64 {
			t = storage.TDecimal
		}
		return storage.Field{Name: a.Name, Type: t}
	default:
		return storage.Field{Name: a.Name, Type: a.ArgType}
	}
}

// aggState is the running state of one aggregate in one group.
type aggState struct {
	i   int64
	f   float64
	s   string
	cnt int64
	set bool
}

// aggChain is a chained hash index over group ids: heads is a power-of-two
// bucket array, next/hashes are indexed by group id. It replaces the old
// map[uint32][]int32, which allocated one slice per distinct hash; a
// worker's chain grows from small by doubling, the merged table's is sized
// exactly and never rehashes.
type aggChain struct {
	mask   uint32
	heads  []int32
	next   []int32
	hashes []uint32 // full hash per group: cheap equality pre-check + rehash
}

func newAggChain(groups int) aggChain {
	buckets := nextPow2(groups)
	c := aggChain{
		heads:  make([]int32, buckets),
		mask:   uint32(buckets - 1),
		next:   make([]int32, 0, groups),
		hashes: make([]uint32, 0, groups),
	}
	for i := range c.heads {
		c.heads[i] = -1
	}
	return c
}

// add registers the next group id under hash h, doubling the bucket array
// when the load factor reaches 1.
func (c *aggChain) add(h uint32) int32 {
	if len(c.next) >= len(c.heads) {
		c.grow()
	}
	id := int32(len(c.next))
	b := h & c.mask
	c.next = append(c.next, c.heads[b])
	c.hashes = append(c.hashes, h)
	c.heads[b] = id
	return id
}

func (c *aggChain) grow() {
	buckets := len(c.heads) * 2
	c.heads = make([]int32, buckets)
	c.mask = uint32(buckets - 1)
	for i := range c.heads {
		c.heads[i] = -1
	}
	for id, h := range c.hashes {
		b := h & c.mask
		c.next[id] = c.heads[b]
		c.heads[b] = int32(id)
	}
}

// aggTable is one worker's (or the merged) grouping hash table.
type aggTable struct {
	keys   *storage.Batch // one row per group: the key columns
	idx    aggChain
	nAggs  int
	groups int
	states []aggState // group g's states are states[g*nAggs : (g+1)*nAggs]
}

// minAggHint is the group capacity a worker's table starts at; it doubles
// from there.
const minAggHint = 64

// newAggTable creates a table with room for groups groups in its keys,
// chain and flat states.
func newAggTable(keySchema *storage.Schema, nAggs, groups int) *aggTable {
	return &aggTable{
		keys:   storage.NewBatch(keySchema, groups),
		idx:    newAggChain(groups),
		nAggs:  nAggs,
		states: make([]aggState, 0, groups*nAggs),
	}
}

// newGroup appends one group's zeroed aggregate states.
func (t *aggTable) newGroup() {
	t.groups++
	t.states = append(t.states, make([]aggState, t.nAggs)...)
}

// statesOf returns the aggregate states of group g.
func (t *aggTable) statesOf(g int) []aggState {
	return t.states[g*t.nAggs : (g+1)*t.nAggs]
}

// groupFor finds or creates the group of row i (keyed by keyCols of b);
// h is the row's key hash (storage.HashRow).
func (t *aggTable) groupFor(b *storage.Batch, keyCols []int, i int, h uint32) int32 {
	if len(keyCols) == 0 {
		if t.groups == 0 {
			t.newGroup()
		}
		return 0
	}
	for g := t.idx.heads[h&t.idx.mask]; g >= 0; g = t.idx.next[g] {
		if t.idx.hashes[g] == h && keysEqual(t.keys, int(g), b, keyCols, i) {
			return g
		}
	}
	g := t.idx.add(h)
	for k, kc := range keyCols {
		t.keys.Cols[k].AppendFrom(b.Cols[kc], i)
	}
	t.newGroup()
	return g
}

func keysEqual(keys *storage.Batch, g int, b *storage.Batch, keyCols []int, i int) bool {
	for k := range keys.Cols {
		kc := keys.Cols[k]
		bc := b.Cols[keyCols[k]]
		kn, bn := kc.IsNull(g), bc.IsNull(i)
		if kn || bn {
			if kn && bn {
				continue // grouping treats NULLs as equal
			}
			return false
		}
		switch kc.Type {
		case storage.TString:
			if kc.Str[g] != bc.Str[i] {
				return false
			}
		case storage.TFloat64:
			if kc.F64[g] != bc.F64[i] {
				return false
			}
		default:
			if kc.I64[g] != bc.I64[i] {
				return false
			}
		}
	}
	return true
}

// GroupBy is the hash-aggregation pipeline breaker. Workers aggregate into
// thread-local tables; Finalize merges them. It supports both roles of a
// distributed aggregation: PartialBatches emits mergeable state (the
// pre-aggregation of Figure 6(c)), FinalBatches emits finished values.
type GroupBy struct {
	Keys     []int
	Aggs     []AggSpec
	InSchema *storage.Schema

	keySchema *storage.Schema
	tables    []*aggTable // per worker
	merged    *aggTable
}

// NewGroupBy creates the sink. numWorkers is the engine's worker count.
// Nothing is sized from estimates: a worker's table starts at minAggHint
// groups and doubles (Q1 has 4 groups in 6M rows), and Finalize sizes the
// merged table exactly.
func NewGroupBy(in *storage.Schema, keys []int, aggs []AggSpec, numWorkers int) *GroupBy {
	ks := in.Project(keys)
	g := &GroupBy{Keys: keys, Aggs: aggs, InSchema: in, keySchema: ks}
	g.tables = make([]*aggTable, numWorkers)
	for i := range g.tables {
		g.tables[i] = newAggTable(ks, len(aggs), minAggHint)
	}
	return g
}

// Consume implements engine.Sink: thread-local aggregation, a batch at a
// time. The batch's group ids go into a worker vector first; then each
// aggregate's argument is evaluated once and folded by group id.
func (g *GroupBy) Consume(w *engine.Worker, b *storage.Batch) {
	t := g.tables[w.ID]
	n := b.Rows()
	groups := w.PushI32(n)
	for i, h := range w.HashRows(b, g.Keys) {
		groups = append(groups, t.groupFor(b, g.Keys, i, h))
	}
	rows := w.PushI32(n)[:n]
	for i := range rows {
		rows[i] = int32(i)
	}
	for a := range g.Aggs {
		spec := &g.Aggs[a]
		fold(w, t.states, len(g.Aggs), a, spec, rows, groups, aggArgs(w, b, rows, spec))
		w.PopCol()
		w.PopCol()
	}
	w.PopI32(rows)
	w.PopI32(groups)
}

// aggArg is one aggregate's arguments over a batch, as aggArgs evaluated
// them: x and x2 hold the values of Arg and Arg2 at each row's own index,
// with their validity; x is nil for Count(*), x2 unless AvgMerge.
type aggArg struct{ x, x2 *storage.Column }

// aggArgs evaluates spec's arguments at sel (distinct rows of b in
// increasing order) into two scratch columns it pushes on w, x of the
// argument's type; the caller pops both once it has folded them.
func aggArgs(w *engine.Worker, b *storage.Batch, sel []int32, spec *AggSpec) aggArg {
	s1, s2 := w.PushCol(spec.ArgType, b.Rows()), w.PushCol(storage.TInt64, b.Rows())
	var arg aggArg
	if spec.Arg != nil {
		arg.x = spec.Arg.Vec(w, b, sel, s1)
	}
	if spec.Arg2 != nil {
		arg.x2 = spec.Arg2.Vec(w, b, sel, s2)
	}
	return arg
}

// fold folds aggregate a over a batch's matches: match k folds row rows[k]
// of the batch into group groups[k], whose states start at
// states[groups[k]*stride]. The matches whose argument is NULL are dropped
// first, into two vectors pushed on w; then one typed loop per kind and
// argument type folds the argument columns, indexed by row. Sum counts
// its rows like Avg does, which appendFinal ignores.
func fold(w *engine.Worker, states []aggState, stride, a int, spec *AggSpec, rows, groups []int32, arg aggArg) {
	x, x2 := arg.x, arg.x2
	if x != nil && x.Nullable || x2 != nil && x2.Nullable {
		rs, gs := w.PushI32(len(rows)), w.PushI32(len(groups))
		for k, r := range rows {
			if !x.IsNull(int(r)) && (x2 == nil || !x2.IsNull(int(r))) {
				rs, gs = append(rs, r), append(gs, groups[k])
			}
		}
		defer w.PopI32(rs)
		defer w.PopI32(gs)
		rows, groups = rs, gs
	}
	float := x != nil && x.Type == storage.TFloat64
	switch k := spec.Kind; {
	case k == Count:
		for _, g := range groups {
			states[int(g)*stride+a].cnt++
		}
	case (k == Sum || k == Avg) && !float:
		for j, g := range groups {
			st := &states[int(g)*stride+a]
			st.i += x.I64[rows[j]]
			st.cnt++
			st.set = true
		}
	case k == Sum || k == Avg || k == AvgMerge:
		for j, g := range groups {
			st, r := &states[int(g)*stride+a], rows[j]
			if float {
				st.f += x.F64[r]
			} else {
				st.i += x.I64[r]
			}
			if k == AvgMerge {
				st.cnt += x2.I64[r]
			} else {
				st.cnt++
			}
			st.set = true
		}
	case x.Type == storage.TFloat64:
		foldBest(states, stride, a, k == Max, x.F64, rows, groups, func(st *aggState) *float64 { return &st.f })
	case x.Type == storage.TString:
		foldBest(states, stride, a, k == Max, x.Str, rows, groups, func(st *aggState) *string { return &st.s })
	default:
		foldBest(states, stride, a, k == Max, x.I64, rows, groups, func(st *aggState) *int64 { return &st.i })
	}
}

// foldBest keeps per group the least (Min) or the greatest (Max) value of
// vs at the matched rows in the state field best picks.
func foldBest[T cmp.Ordered](states []aggState, stride, a int, isMax bool, vs []T, rows, groups []int32, best func(*aggState) *T) {
	for j, g := range groups {
		st, v := &states[int(g)*stride+a], vs[rows[j]]
		if cur := best(st); !st.set || isMax && v > *cur || !isMax && v < *cur {
			*cur, st.set = v, true
		}
	}
}

// Finalize merges the thread-local tables. The merged table's keys, flat
// states and chain are sized exactly from the per-worker group counts
// (their sum bounds the merged cardinality; scalar aggregation has its one
// group), so the merge never grows or rehashes.
func (g *GroupBy) Finalize() error {
	total := 0
	for _, t := range g.tables {
		total += t.groups
	}
	merged := newAggTable(g.keySchema, len(g.Aggs), max(total, 1))
	keyCols := identityCols(len(g.Keys))
	for _, t := range g.tables {
		for grp := 0; grp < t.groups; grp++ {
			// A group's key columns hold the values it was hashed from, so
			// the hash the worker stored is the merged table's hash too.
			var h uint32
			if len(keyCols) > 0 {
				h = t.idx.hashes[grp]
			}
			dst := merged.statesOf(int(merged.groupFor(t.keys, keyCols, grp, h)))
			src := t.statesOf(grp)
			for a := range g.Aggs {
				mergeState(&dst[a], &src[a], &g.Aggs[a])
			}
		}
	}
	// Scalar aggregation always has its single group, even on empty input.
	if len(g.Keys) == 0 && merged.groups == 0 {
		merged.newGroup()
	}
	g.merged = merged
	g.tables = nil
	return nil
}

// identityCols returns [0,1,…,n).
func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func mergeState(dst, src *aggState, spec *AggSpec) {
	switch spec.Kind {
	case Count:
		dst.cnt += src.cnt
	case Sum, Avg, AvgMerge:
		dst.i += src.i
		dst.f += src.f
		dst.cnt += src.cnt
		dst.set = dst.set || src.set
	case Min, Max:
		if !src.set {
			return
		}
		if !dst.set {
			*dst = *src
			return
		}
		less := false
		switch spec.ArgType {
		case storage.TFloat64:
			less = src.f < dst.f
		case storage.TString:
			less = src.s < dst.s
		default:
			less = src.i < dst.i
		}
		if (spec.Kind == Min) == less {
			dst.i, dst.f, dst.s = src.i, src.f, src.s
		}
	}
}

// FinalSchema is the output schema of FinalBatches: keys then aggregates.
func (g *GroupBy) FinalSchema() *storage.Schema {
	out := &storage.Schema{Fields: append([]storage.Field{}, g.keySchema.Fields...)}
	for _, a := range g.Aggs {
		out.Fields = append(out.Fields, a.ResultField())
	}
	return out
}

// PartialSchema is the output schema of PartialBatches: keys, then per
// aggregate its mergeable state columns (Avg contributes sum and count).
func (g *GroupBy) PartialSchema() *storage.Schema {
	out := &storage.Schema{Fields: append([]storage.Field{}, g.keySchema.Fields...)}
	for _, a := range g.Aggs {
		switch a.Kind {
		case Count:
			out.Fields = append(out.Fields, storage.Field{Name: a.Name, Type: storage.TInt64})
		case Avg, AvgMerge:
			t := a.ArgType
			if t != storage.TFloat64 {
				t = storage.TDecimal
			}
			out.Fields = append(out.Fields,
				storage.Field{Name: a.Name + "$sum", Type: t},
				storage.Field{Name: a.Name + "$cnt", Type: storage.TInt64})
		case Min, Max:
			out.Fields = append(out.Fields, storage.Field{Name: a.Name, Type: a.ArgType, Nullable: true})
		default: // Sum
			out.Fields = append(out.Fields, storage.Field{Name: a.Name, Type: a.ArgType})
		}
	}
	return out
}

// FinalBatches materializes finished aggregate values.
func (g *GroupBy) FinalBatches() []*storage.Batch {
	return g.emit(true)
}

// PartialBatches materializes mergeable state for a downstream merge
// aggregation.
func (g *GroupBy) PartialBatches() []*storage.Batch {
	return g.emit(false)
}

func (g *GroupBy) emit(final bool) []*storage.Batch {
	if g.merged == nil {
		panic("op: GroupBy batches requested before Finalize")
	}
	schema := g.PartialSchema()
	if final {
		schema = g.FinalSchema()
	}
	t := g.merged
	out := storage.NewBatch(schema, t.groups)
	for grp := 0; grp < t.groups; grp++ {
		for k := range g.Keys {
			out.Cols[k].AppendFrom(t.keys.Cols[k], grp)
		}
		c := len(g.Keys)
		for a := range g.Aggs {
			st := &t.statesOf(grp)[a]
			spec := &g.Aggs[a]
			if final {
				appendFinal(out.Cols[c], st, spec)
				c++
				continue
			}
			switch spec.Kind {
			case Count:
				out.Cols[c].AppendI64(st.cnt)
				c++
			case Avg, AvgMerge:
				if spec.ArgType == storage.TFloat64 {
					out.Cols[c].AppendF64(st.f)
				} else {
					out.Cols[c].AppendI64(st.i)
				}
				out.Cols[c+1].AppendI64(st.cnt)
				c += 2
			case Min, Max:
				if !st.set {
					out.Cols[c].AppendNull()
				} else {
					appendFinal(out.Cols[c], st, spec)
				}
				c++
			default:
				if spec.ArgType == storage.TFloat64 {
					out.Cols[c].AppendF64(st.f)
				} else {
					out.Cols[c].AppendI64(st.i)
				}
				c++
			}
		}
	}
	return []*storage.Batch{out}
}

func appendFinal(col *storage.Column, st *aggState, spec *AggSpec) {
	switch spec.Kind {
	case Count:
		col.AppendI64(st.cnt)
	case Avg, AvgMerge:
		if st.cnt == 0 {
			if col.Nullable {
				col.AppendNull()
			} else if spec.ArgType == storage.TFloat64 {
				col.AppendF64(0)
			} else {
				col.AppendI64(0)
			}
			return
		}
		if spec.ArgType == storage.TFloat64 {
			col.AppendF64(st.f / float64(st.cnt))
		} else {
			col.AppendI64(st.i / st.cnt)
		}
	default:
		switch spec.ArgType {
		case storage.TFloat64:
			col.AppendF64(st.f)
		case storage.TString:
			col.AppendStr(st.s)
		default:
			col.AppendI64(st.i)
		}
	}
}

// MergeSpecs rewrites aggregate specs to run over a partial schema
// produced by PartialBatches: Sum→Sum, Count→Sum, Min→Min, Max→Max,
// Avg→AvgMerge. keyCount is the number of key columns preceding the state
// columns in the partial schema.
func MergeSpecs(aggs []AggSpec, keyCount int) []AggSpec {
	out := make([]AggSpec, 0, len(aggs))
	c := keyCount
	for _, a := range aggs {
		switch a.Kind {
		case Count:
			out = append(out, AggSpec{Kind: Sum, Name: a.Name, Arg: Col(c), ArgType: storage.TInt64})
			c++
		case Avg, AvgMerge:
			t := a.ArgType
			if t != storage.TFloat64 {
				t = storage.TDecimal
			}
			out = append(out, AggSpec{Kind: AvgMerge, Name: a.Name, Arg: Col(c), Arg2: Col(c + 1), ArgType: t})
			c += 2
		default:
			out = append(out, AggSpec{Kind: a.Kind, Name: a.Name, Arg: Col(c), ArgType: a.ArgType})
			c++
		}
	}
	return out
}
