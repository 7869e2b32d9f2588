package op

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// JoinType selects the join semantics. All joins are probe-side oriented:
// the build side is materialized into a hash table, the probe side streams.
type JoinType int

const (
	// Inner emits probe⨝build combinations.
	Inner JoinType = iota
	// LeftOuter preserves probe rows without matches (build columns NULL).
	LeftOuter
	// Semi emits probe rows that have at least one match.
	Semi
	// Anti emits probe rows that have no match.
	Anti
)

func (t JoinType) String() string {
	switch t {
	case Inner:
		return "inner"
	case LeftOuter:
		return "leftouter"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	default:
		return fmt.Sprintf("JoinType(%d)", int(t))
	}
}

// ResidualPred evaluates a non-equality join condition over a matched
// (probe row, build row) pair.
type ResidualPred func(probe *storage.Batch, pi int, build *storage.Batch, bi int) bool

// HashTable is the shared build-side state of a hash join: a chained
// index over the consolidated build batch. heads is a power-of-two bucket
// array sized once from the exact build cardinality (no rehash, no
// per-bucket slice allocations — the old map[uint32][]int32 paid both);
// next chains build rows within a bucket in ascending row order.
type HashTable struct {
	Build *storage.Batch
	Keys  []int
	mask  uint32
	heads []int32 // bucket → first build row, -1 = empty
	next  []int32 // build row → next row in its bucket, -1 = end
}

// First returns the first candidate build row for a hash (-1 if none).
// Buckets may mix different key hashes; KeyEq filters false candidates.
func (h *HashTable) First(hash uint32) int32 { return h.heads[hash&h.mask] }

// Next returns the next candidate after build row i (-1 at chain end).
func (h *HashTable) Next(i int32) int32 { return h.next[i] }

// KeyEq checks key equality between build row bi and probe row pi.
func (h *HashTable) KeyEq(bi int32, probe *storage.Batch, probeKeys []int, pi int) bool {
	for k, bk := range h.Keys {
		bc := h.Build.Cols[bk]
		pc := probe.Cols[probeKeys[k]]
		if bc.IsNull(int(bi)) || pc.IsNull(pi) {
			return false
		}
		switch bc.Type {
		case storage.TString:
			if bc.Str[bi] != pc.Str[pi] {
				return false
			}
		case storage.TFloat64:
			if bc.F64[bi] != pc.F64[pi] {
				return false
			}
		default:
			if bc.I64[bi] != pc.I64[pi] {
				return false
			}
		}
	}
	return true
}

// Size returns the number of build rows.
func (h *HashTable) Size() int { return h.Build.Rows() }

// JoinBuild is the build-side pipeline breaker: workers collect morsels
// into per-worker shards (no shared lock on the hot path), Finalize
// consolidates them and builds the hash table.
//
// Duplicate-build invariant (skew-adaptive joins): under the SkewAdaptive
// strategy the build rows of a hot key are replicated to every server, so
// this server's table may hold "duplicate" partitions — build rows whose
// key it does not own. That is correct as long as (a) each build tuple is
// routed to any given server at most once (the send-side routes each
// tuple either to its owner or to the broadcast stream, never both) and
// (b) each probe tuple is processed on exactly one server (hot probe
// tuples stay on their origin server, cold ones go to the key's owner).
// The hash table itself chains every received row; it must NOT
// deduplicate keys — two build tuples with equal keys are distinct match
// partners, replicated copies of one tuple never share a server.
type JoinBuild struct {
	Keys   []int
	Schema *storage.Schema

	shards [joinBuildShards]joinBuildShard
	ht     *HashTable
}

// joinBuildShards spreads concurrent Consume calls over independent
// locks; workers map onto shards by id.
const joinBuildShards = 8

type joinBuildShard struct {
	mu      sync.Mutex
	batches []*storage.Batch
	rows    int
	// Pad the 40 payload bytes to 128 (a 64-byte multiple) so adjacent
	// shards never share a cache line.
	_pad [11]uint64
}

// NewJoinBuild creates a build sink keyed on the given columns of schema.
func NewJoinBuild(schema *storage.Schema, keys []int) *JoinBuild {
	return &JoinBuild{Keys: keys, Schema: schema}
}

// ExpectRows pre-sizes the per-shard batch lists from the planner's input
// cardinality estimate (exact for local builds, an upper bound across an
// exchange). morsel is the engine's morsel size. Call before Consume.
func (jb *JoinBuild) ExpectRows(rows, morsel int) {
	if rows <= 0 || morsel <= 0 {
		return
	}
	perShard := rows/morsel/joinBuildShards + 1
	for i := range jb.shards {
		jb.shards[i].batches = make([]*storage.Batch, 0, perShard)
	}
}

// Consume implements engine.Sink.
func (jb *JoinBuild) Consume(w *engine.Worker, b *storage.Batch) {
	idx := 0
	if w != nil {
		idx = w.ID % joinBuildShards
	}
	sh := &jb.shards[idx]
	sh.mu.Lock()
	sh.batches = append(sh.batches, b)
	sh.rows += b.Rows()
	sh.mu.Unlock()
}

// Rows returns the number of build rows collected so far.
func (jb *JoinBuild) Rows() int {
	n := 0
	for i := range jb.shards {
		sh := &jb.shards[i]
		sh.mu.Lock()
		n += sh.rows
		sh.mu.Unlock()
	}
	return n
}

// Finalize consolidates the collected batches (in shard order, so the
// layout does not depend on consume interleaving beyond batch arrival
// order) and builds the table.
func (jb *JoinBuild) Finalize() error {
	build := storage.NewBatch(jb.Schema, jb.Rows())
	for i := range jb.shards {
		sh := &jb.shards[i]
		for _, b := range sh.batches {
			for c, col := range build.Cols {
				col.AppendColumn(b.Cols[c])
			}
		}
		sh.batches = nil
	}
	// The index is built once here from the exact observed cardinality —
	// there is no rehash-during-build to kill. Rows are inserted in
	// descending order (push-front), so chains iterate ascending, matching
	// the append order of the old map-based table.
	rows := build.Rows()
	buckets := nextPow2(rows)
	heads := make([]int32, buckets)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int32, rows)
	mask := uint32(buckets - 1)
	hashes := storage.HashRows(build, jb.Keys, nil)
	for i := rows - 1; i >= 0; i-- {
		h := hashes[i] & mask
		next[i] = heads[h]
		heads[h] = int32(i)
	}
	jb.ht = &HashTable{Build: build, Keys: jb.Keys, mask: mask, heads: heads, next: next}
	return nil
}

// nextPow2 returns the smallest power of two ≥ n (min 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Table returns the built hash table (after Finalize).
func (jb *JoinBuild) Table() *HashTable {
	if jb.ht == nil {
		panic("op: JoinBuild.Table before Finalize")
	}
	return jb.ht
}

// JoinProbe is the probe-side operator.
type JoinProbe struct {
	Build     *JoinBuild
	Type      JoinType
	ProbeKeys []int
	Residual  ResidualPred // optional

	// Output column selection: probe columns first, then build columns.
	// For Semi/Anti only probe columns are emitted.
	ProbeCols []int
	BuildCols []int
	Schema    *storage.Schema

	// rowsIn/rowsOut feed the running match-rate estimate that pre-sizes
	// the output batch: expanding joins stop regrowing mid-morsel,
	// selective joins stop over-allocating the full b.Rows() guess.
	rowsIn  atomic.Uint64
	rowsOut atomic.Uint64

	allocs atomic.Uint64 // output batches created (slot headers in reuse mode)
	slots  []outSlot     // per-worker output batches; nil = fresh per morsel
}

// NewJoinProbe constructs the probe operator. probeSchema is the schema of
// the probe stream; probeCols/buildCols select the output (pruning unused
// columns as early as possible, §3.2.1). For LeftOuter, emitted build
// columns become nullable in the output schema.
func NewJoinProbe(build *JoinBuild, typ JoinType, probeSchema *storage.Schema,
	probeKeys []int, probeCols, buildCols []int, residual ResidualPred) *JoinProbe {

	if len(probeKeys) != len(build.Keys) {
		panic(fmt.Sprintf("op: probe has %d keys, build %d", len(probeKeys), len(build.Keys)))
	}
	out := &storage.Schema{}
	for _, c := range probeCols {
		out.Fields = append(out.Fields, probeSchema.Fields[c])
	}
	if typ == Inner || typ == LeftOuter {
		for _, c := range buildCols {
			f := build.Schema.Fields[c]
			if typ == LeftOuter {
				f.Nullable = true
			}
			out.Fields = append(out.Fields, f)
		}
	} else {
		buildCols = nil
	}
	return &JoinProbe{
		Build:     build,
		Type:      typ,
		ProbeKeys: probeKeys,
		Residual:  residual,
		ProbeCols: probeCols,
		BuildCols: buildCols,
		Schema:    out,
	}
}

// OpName implements engine.NamedOp.
func (jp *JoinProbe) OpName() string { return "probe(" + jp.Type.String() + ")" }

// ReuseOutput makes the probe write each worker's output into one batch
// per worker slot, reused across morsels, its columns pooled (see outSlot
// for the lifetime). Call before the first Process, and only when nothing
// downstream retains the batch (plan.scratchSafe decides).
func (jp *JoinProbe) ReuseOutput(workers int) {
	jp.slots = make([]outSlot, max(workers, 1))
}

// Reuses reports whether ReuseOutput is in effect.
func (jp *JoinProbe) Reuses() bool { return jp.slots != nil }

// BatchAllocs implements engine.AllocCounter: output batches created, one
// per morsel without reuse, one per worker slot with it.
func (jp *JoinProbe) BatchAllocs() uint64 { return jp.allocs.Load() }

// Release implements engine.Releaser: the slots' columns go back to the
// engine's pool.
func (jp *JoinProbe) Release(w *engine.Worker) {
	for i := range jp.slots {
		jp.slots[i].release(w)
	}
}

// output returns an empty batch with room for the estimated output of n
// probe rows: the worker's slot in reuse mode, a fresh batch otherwise.
func (jp *JoinProbe) output(w *engine.Worker, n int) *storage.Batch {
	if jp.slots == nil {
		jp.allocs.Add(1)
		return storage.NewBatch(jp.Schema, jp.outCap(n))
	}
	out, fresh := jp.slots[slotOf(w, len(jp.slots))].take(w, jp.Schema, jp.outCap(n))
	if fresh {
		jp.allocs.Add(1)
	}
	return out
}

// Process implements engine.Op.
func (jp *JoinProbe) Process(w *engine.Worker, b *storage.Batch) *storage.Batch {
	ht := jp.Build.Table()
	out := jp.output(w, b.Rows())
	for i, h := range w.HashRows(b, jp.ProbeKeys) {
		matched := false
		for bi := ht.First(h); bi >= 0; bi = ht.Next(bi) {
			if !ht.KeyEq(bi, b, jp.ProbeKeys, i) {
				continue
			}
			if jp.Residual != nil && !jp.Residual(b, i, ht.Build, int(bi)) {
				continue
			}
			matched = true
			switch jp.Type {
			case Inner, LeftOuter:
				jp.emit(out, b, i, ht.Build, int(bi))
			case Semi:
				// One match suffices.
			case Anti:
				// A match disqualifies the probe row.
			}
			if jp.Type != Inner && jp.Type != LeftOuter {
				break
			}
		}
		switch jp.Type {
		case Semi:
			if matched {
				jp.emitProbeOnly(out, b, i)
			}
		case Anti:
			if !matched {
				jp.emitProbeOnly(out, b, i)
			}
		case LeftOuter:
			if !matched {
				jp.emitProbeWithNulls(out, b, i)
			}
		}
	}
	jp.rowsIn.Add(uint64(b.Rows()))
	jp.rowsOut.Add(uint64(out.Rows()))
	if out.Rows() == 0 {
		return nil
	}
	return out
}

// outCap estimates the output size of a morsel with n probe rows from the
// observed match rate, with ~12% headroom; the first morsel falls back to
// the neutral n guess.
func (jp *JoinProbe) outCap(n int) int {
	in := jp.rowsIn.Load()
	if in == 0 {
		return n
	}
	est := int(float64(jp.rowsOut.Load())/float64(in)*float64(n)) + n/8 + 8
	if est < 1 {
		est = 1
	}
	return est
}

func (jp *JoinProbe) emit(out, probe *storage.Batch, pi int, build *storage.Batch, bi int) {
	c := 0
	for _, pc := range jp.ProbeCols {
		out.Cols[c].AppendFrom(probe.Cols[pc], pi)
		c++
	}
	for _, bc := range jp.BuildCols {
		out.Cols[c].AppendFrom(build.Cols[bc], bi)
		c++
	}
}

func (jp *JoinProbe) emitProbeOnly(out, probe *storage.Batch, pi int) {
	for c, pc := range jp.ProbeCols {
		out.Cols[c].AppendFrom(probe.Cols[pc], pi)
	}
}

func (jp *JoinProbe) emitProbeWithNulls(out, probe *storage.Batch, pi int) {
	c := 0
	for _, pc := range jp.ProbeCols {
		out.Cols[c].AppendFrom(probe.Cols[pc], pi)
		c++
	}
	for range jp.BuildCols {
		out.Cols[c].AppendNull()
		c++
	}
}
