package op

import (
	"cmp"
	"fmt"
	"math"

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

// aggTable is one worker's (or the merged) grouping hash table: a
// HashTable over its own key rows, one chunk, so a group's id is its row.
// A worker's table grows from small by doubling; the merged one is sized
// exactly and never rehashes.
type aggTable struct {
	HashTable
	chunk  [1]buildChunk // chunks' backing: the key rows and their chain
	hashes []uint32      // full hash per group: cheap equality pre-check, rehash and merge
	nAggs  int
	states []aggState // group g's states are states[g*nAggs : (g+1)*nAggs]
}

// minAggHint is the group capacity a worker's table starts at; it doubles
// from there.
const minAggHint = 64

// newAggTable creates a table with room for groups groups in its keys,
// chain and flat states; keyCols is the identity over keySchema's columns.
func newAggTable(keySchema *storage.Schema, keyCols []int, nAggs, groups int) *aggTable {
	t := &aggTable{
		HashTable: HashTable{Keys: keyCols, shift: 31, off: math.MaxInt32},
		hashes:    make([]uint32, 0, groups),
		nAggs:     nAggs,
		states:    make([]aggState, 0, groups*nAggs),
	}
	t.chunk[0] = buildChunk{b: storage.NewBatch(keySchema, groups), next: make([]int32, 0, groups)}
	t.chunks = t.chunk[:]
	t.resize(nextPow2(groups))
	return t
}

// newGroup appends one group's zeroed aggregate states.
func (t *aggTable) newGroup() {
	t.rows++
	t.states = append(t.states, make([]aggState, t.nAggs)...)
}

// statesOf returns the aggregate states of group g.
func (t *aggTable) statesOf(g int) []aggState {
	return t.states[g*t.nAggs : (g+1)*t.nAggs]
}

// groupFor finds or creates the group of row i (keyed by keyCols of b);
// h is the row's key hash (storage.HashRow). Before a new group is
// linked, a table whose load factor has reached 1 doubles its bucket
// array and links every stored hash again.
func (t *aggTable) groupFor(b *storage.Batch, keyCols []int, i int, h uint32) int32 {
	if len(keyCols) == 0 {
		if t.rows == 0 {
			t.newGroup()
		}
		return 0
	}
	ch := &t.chunk[0]
	for g := t.first(h); g >= 0; g = ch.next[g] {
		if t.hashes[g] == h && keyEq(ch.b, int(g), t.Keys, b, i, keyCols) {
			return g
		}
	}
	if t.rows >= len(t.heads) {
		t.resize(2 * len(t.heads))
		for g, gh := range t.hashes {
			t.link(ch, g, int32(g), gh)
		}
	}
	g := int32(t.rows)
	for k, kc := range keyCols {
		ch.b.Cols[k].AppendFrom(b.Cols[kc], i)
	}
	ch.next = append(ch.next, -1)
	t.hashes = append(t.hashes, h)
	t.link(ch, int(g), g, h)
	t.newGroup()
	return g
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
	keyCols   []int       // identity over keySchema: every table's HashTable.Keys
	tables    []*aggTable // per worker
	merged    *aggTable
}

// NewGroupBy creates the sink. numWorkers is the engine's worker count.
// Nothing is sized from estimates: a worker's table starts at minAggHint
// groups and doubles (Q1 has 4 groups in 6M rows), and Finalize sizes the
// merged table exactly.
func NewGroupBy(in *storage.Schema, keys []int, aggs []AggSpec, numWorkers int) *GroupBy {
	g := &GroupBy{Keys: keys, Aggs: aggs, InSchema: in, keySchema: in.Project(keys), keyCols: make([]int, len(keys))}
	for i := range g.keyCols {
		g.keyCols[i] = i
	}
	g.tables = make([]*aggTable, numWorkers)
	for i := range g.tables {
		g.tables[i] = newAggTable(g.keySchema, g.keyCols, len(aggs), minAggHint)
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
		total += t.rows
	}
	merged := newAggTable(g.keySchema, g.keyCols, len(g.Aggs), max(total, 1))
	for _, t := range g.tables {
		for grp := 0; grp < t.rows; grp++ {
			// A group's key columns hold the values it was hashed from, so
			// the hash the worker stored is the merged table's hash too.
			var h uint32
			if len(g.keyCols) > 0 {
				h = t.hashes[grp]
			}
			dst := merged.statesOf(int(merged.groupFor(t.chunk[0].b, g.keyCols, grp, h)))
			src := t.statesOf(grp)
			for a := range g.Aggs {
				mergeState(&dst[a], &src[a], &g.Aggs[a])
			}
		}
	}
	// Scalar aggregation always has its single group, even on empty input.
	if len(g.Keys) == 0 && merged.rows == 0 {
		merged.newGroup()
	}
	g.merged = merged
	g.tables = nil
	return nil
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
	out := storage.NewBatch(schema, t.rows)
	for grp := 0; grp < t.rows; grp++ {
		for k := range g.Keys {
			out.Cols[k].AppendFrom(t.chunk[0].b.Cols[k], grp)
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
