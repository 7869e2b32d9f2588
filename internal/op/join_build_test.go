package op

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/storage"
)

// mixedBuild is a build side in every shape a table must index in place:
// empty batches, 1-row batches, one batch larger than a morsel, keys that
// repeat within and across batches, and NULL keys. ids[i] is the worker
// that consumes batch i (ids sharing a shard interleave there).
func mixedBuild() (schema *storage.Schema, batches []*storage.Batch, ids []int) {
	schema = storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64, Nullable: true},
		storage.Field{Name: "s", Type: storage.TString},
		storage.Field{Name: "v", Type: storage.TDecimal},
	)
	next := 0
	for i, n := range []int{0, 1, engine.DefaultMorselSize + 300, 5, 0, 40, 1, 200, 3} {
		b := storage.NewBatch(schema, n)
		for r := next; r < next+n; r++ {
			var k any = int64(r % 1009)
			if r%11 == 0 {
				k = nil
			}
			b.AppendRow(k, fmt.Sprint("s", r), int64(r))
		}
		next += n
		batches = append(batches, b)
		ids = append(ids, []int{3, 0, 11, 3, 9, 0, 1, 5, 8}[i])
	}
	return schema, batches, ids
}

// consolidated copies the batches into one in shard order: the layout
// Finalize used to build before it indexed the batches in place.
func consolidated(schema *storage.Schema, batches []*storage.Batch, ids []int) *storage.Batch {
	out := storage.NewBatch(schema, 0)
	for shard := 0; shard < joinBuildShards; shard++ {
		for i, b := range batches {
			if ids[i]%joinBuildShards != shard {
				continue
			}
			for r := 0; r < b.Rows(); r++ {
				out.AppendRowFrom(b, r)
			}
		}
	}
	return out
}

// probeBatch has keys that hit, keys that miss (≥ 1009) and NULL keys.
func probeBatch() *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "pk", Type: storage.TInt64, Nullable: true},
		storage.Field{Name: "pv", Type: storage.TInt64},
	), 1200)
	for i := 0; i < 1200; i++ {
		var k any = int64(i)
		if i%97 == 0 {
			k = nil
		}
		b.AppendRow(k, int64(i*7))
	}
	return b
}

func rowStrings(b *storage.Batch) []string {
	if b == nil {
		return nil
	}
	out := make([]string, b.Rows())
	for i := range out {
		out[i] = fmt.Sprint(b.Row(i))
	}
	return out
}

func sameRows(t *testing.T, what string, got, want *storage.Batch) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, the consolidated build gives %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s row %d: %s, the consolidated build gives %s", what, i, g[i], w[i])
		}
	}
}

// TestInPlaceBuildMatchesConsolidated: a table indexed over mixed-size
// batches in place joins exactly as one built over their consolidated
// copy — the same rows in the same order — under every join type, with
// and without a residual that reads both sides, and for GroupJoin.
func TestInPlaceBuildMatchesConsolidated(t *testing.T) {
	schema, batches, ids := mixedBuild()
	copied := consolidated(schema, batches, ids)
	probe := probeBatch()
	// build v < probe pv, or a build string with prefix "s1".
	residual := &Residual{
		Pred: Or(LT(Col(0), Col(1)), StrPrefix(2, "s1")),
		Cols: []ResidualCol{{Build: true, Col: 2}, {Col: 1}, {Build: true, Col: 1}},
	}
	inPlace := func() *JoinBuild {
		jb := NewJoinBuild(schema, []int{0})
		for i, b := range batches {
			jb.Consume(&engine.Worker{ID: ids[i]}, b)
		}
		if err := jb.Finalize(); err != nil {
			t.Fatal(err)
		}
		return jb
	}
	reference := NewJoinBuild(schema, []int{0})
	reference.Consume(&engine.Worker{}, copied)
	if err := reference.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := len(inPlace().Table().chunks); got != 7 {
		t.Fatalf("the in-place table has %d chunks, want the 7 non-empty batches", got)
	}
	for _, typ := range []JoinType{Inner, LeftOuter, Semi, Anti} {
		for _, res := range []*Residual{nil, residual} {
			what := fmt.Sprintf("%v residual=%v", typ, res != nil)
			var out [2]*storage.Batch
			for i, jb := range []*JoinBuild{inPlace(), reference} {
				jp := NewJoinProbe(jb, typ, probe.Schema, []int{0}, []int{0, 1}, []int{1, 2}, res)
				out[i] = jp.Process(&engine.Worker{}, probe)
			}
			if out[1] == nil || out[1].Rows() == 0 {
				t.Fatalf("%s: the reference join is empty: the comparison checks nothing", what)
			}
			sameRows(t, what, out[0], out[1])
		}
	}
	aggs := []AggSpec{
		{Kind: Sum, Name: "sum", Arg: Col(1), ArgType: storage.TInt64},
		{Kind: Count, Name: "n"},
	}
	var out [2]*storage.Batch
	for i, build := range [][]*storage.Batch{batches, {copied}} {
		g := NewGroupJoinBuild(schema, []int{0}, aggs)
		for j, b := range build {
			id := 0
			if len(build) > 1 {
				id = ids[j]
			}
			g.Consume(&engine.Worker{ID: id}, b)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		(&GroupJoinProbe{Build: g, ProbeKeys: []int{0}}).Consume(&engine.Worker{}, probe)
		out[i] = g.ResultBatches()[0]
	}
	sameRows(t, "groupjoin", out[0], out[1])
}

// TestPackShiftRejectsOverflow: row ids pack chunk<<shift | offset into
// an int32, so a build whose last chunk's ids would pass MaxInt32 is
// refused, never wrapped; one that fits uses every id up to MaxInt32.
func TestPackShiftRejectsOverflow(t *testing.T) {
	for _, c := range []struct {
		chunks, largest int
		ok              bool
	}{
		{0, 0, true},
		{1, 1, true},
		{7, 16384, true},
		{1, 1 << 31, true},
		{1, 1<<31 + 1, false},
		{2, 1 << 30, true},
		{3, 1 << 30, false},
		{1 << 20, 1 << 11, true},
		{1<<20 + 1, 1 << 11, false},
		{1 << 31, 1, true},
		{1<<31 + 1, 1, false},
		{1 << 40, 1 << 40, false},
	} {
		shift, err := packShift(c.chunks, c.largest)
		if (err == nil) != c.ok {
			t.Errorf("packShift(%d chunks, %d rows) error %v, want ok=%v", c.chunks, c.largest, err, c.ok)
			continue
		}
		if err != nil || c.chunks == 0 {
			continue
		}
		if c.largest > 1<<shift {
			t.Errorf("packShift(%d chunks, %d rows) = %d: offsets do not fit", c.chunks, c.largest, shift)
		}
		if last := uint64(c.chunks-1)<<shift | uint64(c.largest-1); last > math.MaxInt32 {
			t.Errorf("packShift(%d chunks, %d rows) = %d: the last id %d wraps", c.chunks, c.largest, shift, last)
		}
	}
}

// TestResidualJoinMatchesOracle checks a probe with a residual against a
// nested-loop join: random builds of three to five batches whose keys
// repeat (sometimes the nullable key column), every join type, random
// residuals over a random choice of probe and build columns, nullable ones
// included, in fresh and in reuse mode. The oracle walks the build rows in
// table order (one worker consumed them, so one shard holds them), matches
// keys by value and evaluates the residual's row form on a one-row batch
// of the pair's own values.
func TestResidualJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := testEngine(t, 1).NewWorker(0)
	for round := 0; round < 150; round++ {
		key := []int{0, 5}[rng.Intn(2)]
		probe := exprBatch(rng, rng.Intn(200))
		var chunks []*storage.Batch
		for range 3 + rng.Intn(3) {
			chunks = append(chunks, exprBatch(rng, 1+rng.Intn(60)))
		}
		schema := probe.Schema
		var sides []ResidualCol
		for c := range schema.Fields {
			sides = append(sides, ResidualCol{Col: c}, ResidualCol{Build: true, Col: c})
		}
		rng.Shuffle(len(sides), func(i, j int) { sides[i], sides[j] = sides[j], sides[i] })
		cols := []ResidualCol{{Col: rng.Intn(len(schema.Fields))}, {Build: true, Col: rng.Intn(len(schema.Fields))}}
		cols = append(cols, sides[:rng.Intn(4)]...)
		cand := &storage.Schema{}
		for _, rc := range cols {
			cand.Fields = append(cand.Fields, schema.Fields[rc.Col])
		}
		res := &Residual{Pred: gen{rng, cand}.pred(2), Cols: cols}
		pair := storage.NewBatch(cand, 1)
		holds := func(pi int, build *storage.Batch, bi int) bool {
			pair.Reset()
			for k, rc := range cols {
				if rc.Build {
					pair.Cols[k].AppendFrom(build.Cols[rc.Col], bi)
				} else {
					pair.Cols[k].AppendFrom(probe.Cols[rc.Col], pi)
				}
			}
			return res.Pred.Eval(pair, 0)
		}
		probeCols, buildCols := []int{0, 3, 6}, []int{1, 5, 7}
		for _, typ := range []JoinType{Inner, LeftOuter, Semi, Anti} {
			jb := NewJoinBuild(schema, []int{key})
			for _, b := range chunks {
				jb.Consume(w, b)
			}
			if err := jb.Finalize(); err != nil {
				t.Fatal(err)
			}
			want := storage.NewBatch(NewJoinProbe(jb, typ, schema, []int{key}, probeCols, buildCols, nil).Schema, 0)
			for pi := range probe.Rows() {
				hit := false
				for _, build := range chunks {
					for bi := range build.Rows() {
						k := probe.Cols[key].Value(pi)
						if k == nil || k != build.Cols[key].Value(bi) || !holds(pi, build, bi) {
							continue
						}
						hit = true
						if typ == Inner || typ == LeftOuter {
							want.AppendRow(append(pickRow(probe, pi, probeCols), pickRow(build, bi, buildCols)...)...)
						}
					}
				}
				switch {
				case typ == Semi && hit, typ == Anti && !hit:
					want.AppendRow(pickRow(probe, pi, probeCols)...)
				case typ == LeftOuter && !hit:
					want.AppendRow(append(pickRow(probe, pi, probeCols), nil, nil, nil)...)
				}
			}
			for _, reuse := range []bool{false, true} {
				jp := NewJoinProbe(jb, typ, schema, []int{key}, probeCols, buildCols, res)
				if reuse {
					jp.ReuseOutput(1)
				}
				got := jp.Process(w, probe)
				what := fmt.Sprintf("round %d, %v reuse=%v, residual %T over %v", round, typ, reuse, res.Pred, cols)
				if got == nil && want.Rows() == 0 {
					continue
				}
				sameRows(t, what, got, want)
				jp.Release(w)
			}
		}
	}
}

// pickRow returns the values of row i of b in the given columns.
func pickRow(b *storage.Batch, i int, cols []int) []any {
	out := make([]any, len(cols))
	for k, c := range cols {
		out[k] = b.Cols[c].Value(i)
	}
	return out
}
