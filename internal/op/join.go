package op

import (
	"fmt"
	"math/bits"
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

// Residual is a join's non-equality condition: an ordinary Pred over a
// candidate batch that holds one row per key-matching (probe row, build
// row) pair, and as its column k the pair's value of Cols[k]. Only the
// columns the residual reads are gathered.
type Residual struct {
	Pred Pred
	Cols []ResidualCol
}

// ResidualCol is one column of a residual's candidate batch: column Col of
// the build side when Build is set, of the probe side otherwise.
type ResidualCol struct {
	Build bool
	Col   int
}

// HashTable is the shared build-side state of a hash join: a chained
// index over the collected build batches, which it references in place
// (its chunks, in shard order) instead of copying them into one. A row id
// packs chunk<<shift | offset, shift sized for the largest chunk, so ids
// ascend in the order a consolidated copy would number the rows. heads is
// a power-of-two bucket array sized once from the exact build cardinality
// (no rehash, no per-bucket slice allocations); next chains build rows
// within a bucket in ascending id order.
type HashTable struct {
	Keys   []int
	chunks []buildChunk
	shift  uint
	off    int32 // 1<<shift - 1: the offset bits of an id
	mask   uint32
	heads  []int32 // bucket → first row id, -1 = empty
	rows   int
}

// buildChunk is one collected build batch, indexed where it lies.
type buildChunk struct {
	b     *storage.Batch
	next  []int32 // offset → next row id in its bucket, -1 = end
	start int     // index of the batch's first row in a consolidated copy
}

// First returns the first candidate row id for a hash (-1 if none).
// Buckets may mix different key hashes; KeyEq filters false candidates.
func (h *HashTable) First(hash uint32) int32 { return h.heads[hash&h.mask] }

// Row resolves a row id to the build batch holding it and the row's
// offset in that batch.
func (h *HashTable) Row(i int32) (*storage.Batch, int) {
	return h.chunks[i>>h.shift].b, int(i & h.off)
}

// chain walks row ids for a probe. Consecutive candidates often lie in
// the same chunk (always, for a build of one batch), so it looks the
// chunk up again only when the chunk number changes. That branch is
// predicted, and the row's offset is then all that waits on the id, as
// with one consolidated batch, instead of a series of dependent loads
// through the chunk table.
type chain struct {
	h   *HashTable
	cur int32
	ch  *buildChunk
}

func (h *HashTable) chain() chain { return chain{h: h, cur: -1} }

// step resolves row id i to its chunk and offset, and returns the next
// candidate's id (-1 at chain end).
func (c *chain) step(i int32) (ch *buildChunk, o int, next int32) {
	if k := i >> c.h.shift; k != c.cur {
		c.cur, c.ch = k, &c.h.chunks[k]
	}
	o = int(i & c.h.off)
	return c.ch, o, c.ch.next[o]
}

// matches collects the key-matching (probe row, build row id) pairs of
// probe, in probe row and then chain order, into two vectors pushed on w's
// stack (pop ids, then rows). With first, a probe row stops at its first.
func (h *HashTable) matches(w *engine.Worker, probe *storage.Batch, keys []int, first bool) (rows, ids []int32) {
	rows, ids = w.PushI32(probe.Rows()), w.PushI32(probe.Rows())
	walk := h.chain()
	for i, hash := range w.HashRows(probe, keys) {
		for id := h.First(hash); id >= 0; {
			ch, bi, next := walk.step(id)
			if h.KeyEq(ch.b, bi, probe, keys, i) {
				rows = append(rows, int32(i))
				ids = append(ids, id)
				if first {
					break
				}
			}
			id = next
		}
	}
	return rows, ids
}

// gather appends column c of the build rows ids to dst, a NULL for id -1.
func (h *HashTable) gather(dst *storage.Column, c int, ids []int32) {
	for _, id := range ids {
		if id < 0 {
			dst.AppendNull()
			continue
		}
		build, bi := h.Row(id)
		dst.AppendFrom(build.Cols[c], bi)
	}
}

// KeyEq checks key equality between row bi of build and row pi of probe.
func (h *HashTable) KeyEq(build *storage.Batch, bi int, probe *storage.Batch, probeKeys []int, pi int) bool {
	for k, bk := range h.Keys {
		bc := build.Cols[bk]
		pc := probe.Cols[probeKeys[k]]
		if bc.IsNull(bi) || pc.IsNull(pi) {
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
func (h *HashTable) Size() int { return h.rows }

// packShift returns the shift that packs a row id as chunk<<shift | offset
// for n chunks of at most largest rows each, or an error when the ids of
// the last chunk would pass MaxInt32: ids are int32 and -1 ends a chain,
// so they must never wrap.
func packShift(n, largest int) (uint, error) {
	shift := uint(bits.Len(uint(max(largest, 1) - 1)))
	if n > 0 && uint(bits.Len(uint(n-1)))+shift > 31 {
		return 0, fmt.Errorf("op: join build of %d batches of up to %d rows overflows int32 row ids", n, largest)
	}
	return shift, nil
}

// newHashTable indexes chunks (non-empty, in id order) on keys. Rows are
// inserted in descending id order (push-front), so chains iterate
// ascending. The key hashes are w's vector, one chunk at a time.
func newHashTable(chunks []*storage.Batch, keys []int, w *engine.Worker) (*HashTable, error) {
	rows, largest := 0, 0
	for _, b := range chunks {
		rows += b.Rows()
		largest = max(largest, b.Rows())
	}
	shift, err := packShift(len(chunks), largest)
	if err != nil {
		return nil, err
	}
	buckets := nextPow2(rows)
	h := &HashTable{
		Keys: keys, chunks: make([]buildChunk, len(chunks)),
		shift: shift, off: int32(1)<<shift - 1, mask: uint32(buckets - 1),
		heads: make([]int32, buckets), rows: rows,
	}
	for i := range h.heads {
		h.heads[i] = -1
	}
	next := make([]int32, rows)
	start := 0
	for c, b := range chunks {
		end := start + b.Rows()
		h.chunks[c] = buildChunk{b: b, next: next[start:end:end], start: start}
		start = end
	}
	for c := len(chunks) - 1; c >= 0; c-- {
		ch, base := &h.chunks[c], int32(c)<<shift
		hashes := w.HashRows(ch.b, keys)
		for o := len(hashes) - 1; o >= 0; o-- {
			b := hashes[o] & h.mask
			ch.next[o] = h.heads[b]
			h.heads[b] = base | int32(o)
		}
	}
	return h, nil
}

// JoinBuild is the build-side pipeline breaker: workers collect morsels
// into per-worker shards (no shared lock on the hot path), Finalize
// indexes them in place.
//
// The table references the batches it was given for the life of the
// graph, so they must not change afterwards: a build receives fresh
// batches or base-table views, never a reuse-mode operator's or exchange
// receive's pooled batch (plan.scratchSafe keeps those away).
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
	// Pad the 32 payload bytes to 128 (a 64-byte multiple) so adjacent
	// shards never share a cache line.
	_pad [12]uint64
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
	sh.mu.Unlock()
}

// Finalize builds the table with a worker of its own (callers outside the
// scheduler: tests, probes).
func (jb *JoinBuild) Finalize() error { return jb.FinalizeOn(&engine.Worker{}) }

// FinalizeOn implements engine.WorkerFinalizer: it indexes the collected
// batches in place, in shard order — the layout does not depend on
// consume interleaving beyond batch arrival order — hashing them in w's
// vector. The index is built once from the exact observed cardinality;
// there is no rehash-during-build.
func (jb *JoinBuild) FinalizeOn(w *engine.Worker) error {
	n := 0
	for i := range jb.shards {
		n += len(jb.shards[i].batches)
	}
	chunks := make([]*storage.Batch, 0, n)
	for i := range jb.shards {
		sh := &jb.shards[i]
		for _, b := range sh.batches {
			if b.Rows() > 0 {
				chunks = append(chunks, b)
			}
		}
		sh.batches = nil
	}
	ht, err := newHashTable(chunks, jb.Keys, w)
	if err != nil {
		return err
	}
	jb.ht = ht
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
	Residual  *Residual // optional

	// Output column selection: probe columns first, then build columns.
	// For Semi/Anti only probe columns are emitted.
	ProbeCols  []int
	BuildCols  []int
	Schema     *storage.Schema
	candSchema *storage.Schema // the residual's candidate batch

	// rowsIn/rowsOut feed the running match-rate estimate that pre-sizes
	// the output batch: expanding joins stop regrowing mid-morsel,
	// selective joins stop over-allocating the full b.Rows() guess.
	rowsIn  atomic.Uint64
	rowsOut atomic.Uint64

	allocs atomic.Uint64 // output batches created (slot headers in reuse mode)
	slots  []engine.Slot // per worker: output, then candidates; nil = fresh per morsel
}

// NewJoinProbe constructs the probe operator. probeSchema is the schema of
// the probe stream; probeCols/buildCols select the output (pruning unused
// columns as early as possible, §3.2.1). For LeftOuter, emitted build
// columns become nullable in the output schema. residual may be nil.
func NewJoinProbe(build *JoinBuild, typ JoinType, probeSchema *storage.Schema,
	probeKeys []int, probeCols, buildCols []int, residual *Residual) *JoinProbe {

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
	var cand *storage.Schema
	if residual != nil {
		cand = &storage.Schema{}
		for _, rc := range residual.Cols {
			side := probeSchema
			if rc.Build {
				side = build.Schema
			}
			cand.Fields = append(cand.Fields, side.Fields[rc.Col])
		}
	}
	return &JoinProbe{
		Build:      build,
		Type:       typ,
		ProbeKeys:  probeKeys,
		Residual:   residual,
		ProbeCols:  probeCols,
		BuildCols:  buildCols,
		Schema:     out,
		candSchema: cand,
	}
}

// OpName implements engine.NamedOp.
func (jp *JoinProbe) OpName() string { return "probe(" + jp.Type.String() + ")" }

// ReuseOutput makes the probe write each worker's output into one batch
// per worker slot, reused across morsels, its columns pooled (see engine.Slot
// for the lifetime). Call before the first Process, and only when nothing
// downstream retains the batch (plan.scratchSafe decides).
func (jp *JoinProbe) ReuseOutput(workers int) {
	jp.slots = make([]engine.Slot, 2*max(workers, 1))
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
		jp.slots[i].Release(w)
	}
}

// batch returns an empty batch of schema with room for n rows: in reuse
// mode the worker's slot of the given kind (0 output, 1 candidates), a
// fresh batch otherwise. fresh reports a header this call created.
func (jp *JoinProbe) batch(w *engine.Worker, kind int, schema *storage.Schema, n int) (b *storage.Batch, fresh bool) {
	if jp.slots == nil {
		return storage.NewBatch(schema, n), true
	}
	return jp.slots[2*engine.SlotOf(w, len(jp.slots)/2)+kind].Take(w, schema, n)
}

// Process implements engine.Op: the batch's key matches, narrowed by the
// residual, become output rows in one loop by join type ("any match left"
// decides Semi, Anti, LeftOuter), and each output column one gather.
func (jp *JoinProbe) Process(w *engine.Worker, b *storage.Batch) *storage.Batch {
	ht := jp.Build.Table()
	rows, ids := ht.matches(w, b, jp.ProbeKeys, jp.Residual == nil && (jp.Type == Semi || jp.Type == Anti))
	if jp.Residual != nil {
		rows, ids = jp.residual(w, b, rows, ids)
	}
	// Output pairs of a probe row and a build row id, -1 for none: for
	// Inner the matches themselves.
	outRows, outIDs := rows, ids
	if jp.Type != Inner {
		outRows, outIDs = w.PushI32(b.Rows()+len(rows)), w.PushI32(b.Rows()+len(rows))
		k := 0
		for i := range int32(b.Rows()) {
			start := k
			for k < len(rows) && rows[k] == i {
				k++
			}
			switch hit := k > start; {
			case jp.Type == LeftOuter && hit:
				outRows, outIDs = append(outRows, rows[start:k]...), append(outIDs, ids[start:k]...)
			case jp.Type == Semi && hit, jp.Type != Semi && !hit:
				outRows, outIDs = append(outRows, i), append(outIDs, -1)
			}
		}
	}
	out, fresh := jp.batch(w, 0, jp.Schema, jp.outCap(b.Rows()))
	if fresh {
		jp.allocs.Add(1)
	}
	for c, pc := range jp.ProbeCols {
		gatherCol(out.Cols[c], b.Cols[pc], outRows)
	}
	for c, bc := range jp.BuildCols {
		ht.gather(out.Cols[len(jp.ProbeCols)+c], bc, outIDs)
	}
	if jp.Type != Inner {
		w.PopI32(outIDs)
		w.PopI32(outRows)
	}
	w.PopI32(ids)
	w.PopI32(rows)
	jp.rowsIn.Add(uint64(b.Rows()))
	jp.rowsOut.Add(uint64(out.Rows()))
	if out.Rows() == 0 {
		return nil
	}
	return out
}

// residual gathers the columns the residual reads at the key matches
// (rows, ids) into a candidate batch, one row per match, selects it with
// the residual's Pred, and keeps the selected matches, in order.
func (jp *JoinProbe) residual(w *engine.Worker, b *storage.Batch, rows, ids []int32) ([]int32, []int32) {
	cand, _ := jp.batch(w, 1, jp.candSchema, len(rows))
	for k, rc := range jp.Residual.Cols {
		if rc.Build {
			jp.Build.Table().gather(cand.Cols[k], rc.Col, ids)
		} else {
			gatherCol(cand.Cols[k], b.Cols[rc.Col], rows)
		}
	}
	sel := w.PushI32(len(rows))[:len(rows)]
	for k := range sel {
		sel[k] = int32(k)
	}
	sel = jp.Residual.Pred.Select(w, cand, sel, sel)
	for j, k := range sel {
		rows[j], ids[j] = rows[k], ids[k]
	}
	w.PopI32(sel)
	return rows[:len(sel)], ids[:len(sel)]
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
