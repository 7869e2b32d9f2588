//go:build !race

package exchange

import (
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// TestRouteBatchAllocs: hashing, partitioning, serializing and NUMA
// accounting allocate nothing per row. The send is warm — the worker's
// hash vector and the open message of every destination exist — and the
// batches are small enough that no message fills up, so the pool's
// per-message cost stays out of the count.
func TestRouteBatchAllocs(t *testing.T) {
	b := rows(64, 0)
	topo := numa.TwoSocket()
	for _, mode := range []Mode{ModePartition, ModeClassicPartition, ModeBroadcast, ModeGather} {
		send := NewSend(SendConfig{
			Pool: memory.NewPool(topo, numa.AllocLocal, 0, nil), ExID: 1, Mode: mode,
			Servers: 3, WorkersPerServer: 2, Keys: []int{0, 1}, Codec: ser.NewCodec(b.Schema),
			NumWorkers: 1, Topo: topo, Scale: 1,
		})
		w := &engine.Worker{}
		st := &send.workers[0]
		send.routeBatch(st, w, b)
		if n := testing.AllocsPerRun(20, func() { send.routeBatch(st, w, b) }); n != 0 {
			t.Errorf("%v: routeBatch allocates %v times per %d-row batch, want 0", mode, n, b.Rows())
		}
		releaseOpen(st)
	}
}

// TestRangeRouteAllocs: routing by a RangeMap allocates no more per batch
// than routing by the CRC32 of the same key, on the same warm send.
func TestRangeRouteAllocs(t *testing.T) {
	b := rows(64, 0)
	topo := numa.TwoSocket()
	allocs := func(r *RangeMap) float64 {
		send := NewSend(SendConfig{
			Pool: memory.NewPool(topo, numa.AllocLocal, 0, nil), ExID: 1, Mode: ModePartition,
			Servers: 3, Keys: []int{0}, Codec: ser.NewCodec(b.Schema),
			NumWorkers: 1, Topo: topo, Scale: 1, Ranges: r,
		})
		w := &engine.Worker{}
		st := &send.workers[0]
		send.routeBatch(st, w, b)
		defer releaseOpen(st)
		return testing.AllocsPerRun(20, func() { send.routeBatch(st, w, b) })
	}
	hash, ranged := allocs(nil), allocs(&RangeMap{Lo: []int64{0, 20, 40}})
	if ranged > hash {
		t.Errorf("a range-routed routeBatch allocates %v times per %d-row batch, the hash route %v", ranged, b.Rows(), hash)
	}
}

// releaseOpen returns a worker's open messages without sending them.
func releaseOpen(st *workerSendState) {
	for unit, msg := range st.open {
		if msg != nil {
			msg.Release()
			st.open[unit] = nil
		}
	}
}

// TestSourceReuseAllocs: a warm reuse-mode receive decodes each message
// into its worker's slot, whose columns came back from the engine's pool
// after a Release: no allocation for a fixed-width message, one (the
// message's string arena) for a message with strings.
func TestSourceReuseAllocs(t *testing.T) {
	topo := numa.TwoSocket()
	e, err := engine.New(engine.Config{Topology: topo, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w := e.NewWorker(0)
	pool := memory.NewPool(topo, numa.AllocLocal, 0, nil)
	fixed := storage.NewBatch(storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "p", Type: storage.TDecimal},
		storage.Field{Name: "d", Type: storage.TDate, Nullable: true},
	), 64)
	for i := 0; i < 64; i++ {
		fixed.AppendRow(int64(i), int64(i*100), int64(i))
	}
	for _, c := range []struct {
		name string
		b    *storage.Batch
		want float64
	}{{"fixed-width", fixed, 0}, {"string", rows(64, 0), 1}} {
		codec := ser.NewCodec(c.b.Schema)
		var content []byte
		for i := 0; i < c.b.Rows(); i++ {
			content = codec.EncodeRow(c.b, i, content)
		}
		src := &Source{Codec: codec}
		src.ReuseBatches(1)
		decode := func() {
			msg := pool.Get(0)
			msg.Content = append(msg.Content, content...)
			if got := src.decode(w, msg); got == nil || got.Rows() != c.b.Rows() {
				t.Fatalf("%s: decoded %v, want %d rows", c.name, got, c.b.Rows())
			}
		}
		decode()
		src.Release(w)
		decode()
		if got := testing.AllocsPerRun(20, decode); got != c.want {
			t.Errorf("%s: a warm reuse-mode decode allocates %v times per message, want %v", c.name, got, c.want)
		}
	}
}

// TestSemiFilterAllocs: a semi-join-reduced shuffle allocates a constant
// number of times per join and server, whatever its row count. One
// iteration routes a filtered build (keeping its key hashes in pooled
// columns), publishes and merges the filter, routes a probe through it
// and drains both exchanges, on warm pools; the count is the same at 1×
// and 10× the rows.
func TestSemiFilterAllocs(t *testing.T) {
	h := newHarness(t, 1)
	topo := numa.TwoSocket()
	e, err := engine.New(engine.Config{Topology: topo, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w := e.NewWorker(0)
	pool := memory.NewPool(topo, numa.AllocLocal, 0, nil) // one message holds every row
	m := h.muxes[0]
	codec := ser.NewCodec(rows(1, 0).Schema)
	qid := int32(100)
	run := func(build, probe *storage.Batch) func() {
		return func() {
			qid++
			f := NewSemiFilter(ControlConfig{Mux: m, Pool: pool, QueryID: qid, ExID: 0, Servers: 1})
			recvs := [2]*mux.ExchangeRecv{m.OpenExchange(qid, 1, 1), m.OpenExchange(qid, 2, 1)}
			for i, b := range [2]*storage.Batch{build, probe} {
				cfg := SendConfig{Mux: m, Pool: pool, QueryID: qid, ExID: int32(i + 1), Mode: ModePartition,
					Servers: 1, Keys: []int{0}, Codec: codec, NumWorkers: 1}
				if i == 0 {
					cfg.BuildFilter = f
				} else {
					cfg.ProbeFilter = f
					// The probe pipeline depends on the filter's round: the
					// build send's filter is in, so the round ends here.
					if err := f.Finalize(); err != nil {
						t.Fatal(err)
					}
				}
				send := NewSend(cfg)
				send.Consume(w, b)
				if err := send.FinalizeOn(w); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range recvs {
				for {
					msg, done := r.TryRecv(0)
					if msg == nil {
						if done {
							break
						}
						continue
					}
					msg.Release()
				}
			}
			m.CloseQuery(qid)
		}
	}
	var counts []float64
	for _, n := range []int{500, 5000} {
		probe := rows(n, 0)
		build := storage.NewBatch(probe.Schema, n/10)
		for i := 0; i < n; i += 10 {
			build.AppendRow(int64(i), "b")
		}
		iter := run(build, probe)
		iter()
		counts = append(counts, testing.AllocsPerRun(50, iter))
	}
	t.Logf("allocations per filtered join: %v at 1× and 10× the rows", counts)
	if counts[0] != counts[1] {
		t.Errorf("a filtered join allocates %v times at 1× the rows and %v at 10×, want a constant", counts[0], counts[1])
	}
}
