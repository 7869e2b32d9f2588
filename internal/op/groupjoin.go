package op

import (
	"sync"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// GroupJoin implements HyPer's Γ⨝ operator (Figure 6: TPC-H query 17 uses
// a groupjoin of part and lineitem): it combines a join and a group-by on
// the same key in one pass. The left (build) side becomes the groups; the
// right (probe) side streams and folds its tuples into the aggregate
// states of the matching group. Finalize emits one row per matched group:
// the left row followed by the aggregate values.
//
// Compared to aggregate-then-join it saves one hash table and one
// materialization — the ablation benchmark BenchmarkGroupJoinAblation
// quantifies this.

// GroupJoinBuild is the left-side pipeline breaker.
type GroupJoinBuild struct {
	Keys   []int
	Schema *storage.Schema
	Aggs   []AggSpec

	jb    *JoinBuild
	locks []sync.Mutex
	state []aggState // [dense build row × agg], see statesOf
	hit   []bool     // dense build row matched at least once
}

// NewGroupJoinBuild creates the build sink.
func NewGroupJoinBuild(schema *storage.Schema, keys []int, aggs []AggSpec) *GroupJoinBuild {
	return &GroupJoinBuild{
		Keys:   keys,
		Schema: schema,
		Aggs:   aggs,
		jb:     NewJoinBuild(schema, keys),
		locks:  make([]sync.Mutex, 256),
	}
}

// Consume implements engine.Sink.
func (g *GroupJoinBuild) Consume(w *engine.Worker, b *storage.Batch) { g.jb.Consume(w, b) }

// Finalize builds the hash table and allocates aggregate states.
func (g *GroupJoinBuild) Finalize() error { return g.FinalizeOn(&engine.Worker{}) }

// FinalizeOn implements engine.WorkerFinalizer: the table is built in w's
// hash vector (JoinBuild.FinalizeOn).
func (g *GroupJoinBuild) FinalizeOn(w *engine.Worker) error {
	if err := g.jb.FinalizeOn(w); err != nil {
		return err
	}
	n := g.jb.Table().Size()
	g.state = make([]aggState, n*len(g.Aggs))
	g.hit = make([]bool, n)
	return nil
}

// statesOf returns the aggregate states of dense build row d.
func (g *GroupJoinBuild) statesOf(d int) []aggState {
	return g.state[d*len(g.Aggs) : (d+1)*len(g.Aggs)]
}

// GroupJoinProbe is the right-side sink: it folds probe tuples into the
// matching group's aggregates.
type GroupJoinProbe struct {
	Build     *GroupJoinBuild
	ProbeKeys []int
}

// Consume implements engine.Sink. It collects the batch's matches (probe
// row, dense build row) first, evaluates every aggregate's arguments once
// at the matched probe rows, and then takes each lock once per run of
// matches that share it, marking the hits and folding every aggregate.
func (p *GroupJoinProbe) Consume(w *engine.Worker, b *storage.Batch) {
	g := p.Build
	ht := g.jb.Table()
	// Per match: its probe row, and its build row id made dense in place.
	rows, groups := ht.matches(w, b, p.ProbeKeys, false)
	sel := w.PushI32(b.Rows()) // the probe rows with a match, once each
	for k, id := range groups {
		groups[k] = int32(ht.chunks[id>>ht.shift].start) + id&ht.off
		if i := rows[k]; len(sel) == 0 || sel[len(sel)-1] != i {
			sel = append(sel, i)
		}
	}
	var buf [4]aggArg // up to four aggregates without an allocation
	args := buf[:0]
	for a := range g.Aggs {
		args = append(args, aggArgs(w, b, sel, &g.Aggs[a]))
	}
	for k := 0; k < len(groups); {
		l := uint32(groups[k]) & 255
		e := k + 1
		for e < len(groups) && uint32(groups[e])&255 == l {
			e++
		}
		lock := &g.locks[l]
		lock.Lock()
		for _, d := range groups[k:e] {
			g.hit[d] = true
		}
		for a, arg := range args {
			fold(w, g.state, len(g.Aggs), a, &g.Aggs[a], rows[k:e], groups[k:e], arg)
		}
		lock.Unlock()
		k = e
	}
	for range args {
		w.PopCol()
		w.PopCol()
	}
	w.PopI32(sel)
	w.PopI32(groups)
	w.PopI32(rows)
}

// Finalize implements engine.Sink.
func (p *GroupJoinProbe) Finalize() error { return nil }

// ResultSchema returns the output schema: left columns then aggregates.
func (g *GroupJoinBuild) ResultSchema() *storage.Schema {
	out := &storage.Schema{Fields: append([]storage.Field{}, g.Schema.Fields...)}
	for _, a := range g.Aggs {
		out.Fields = append(out.Fields, a.ResultField())
	}
	return out
}

// ResultBatches emits one row per matched group, in build order and into
// a batch sized exactly to the matched groups.
func (g *GroupJoinBuild) ResultBatches() []*storage.Batch {
	hits := 0
	for _, h := range g.hit {
		if h {
			hits++
		}
	}
	out := storage.NewBatch(g.ResultSchema(), hits)
	width := g.Schema.Len()
	for _, ch := range g.jb.Table().chunks {
		for bi := range ch.b.Rows() {
			d := ch.start + bi
			if !g.hit[d] {
				continue
			}
			for c := 0; c < width; c++ {
				out.Cols[c].AppendFrom(ch.b.Cols[c], bi)
			}
			for a := range g.Aggs {
				appendFinal(out.Cols[width+a], &g.statesOf(d)[a], &g.Aggs[a])
			}
		}
	}
	return []*storage.Batch{out}
}
