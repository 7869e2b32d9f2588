package exchange

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/nic"
	"hsqp/internal/numa"
	"hsqp/internal/op"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

type harness struct {
	muxes []*mux.Mux
	pools []*memory.Pool
	engs  []*engine.Engine
	topo  *numa.Topology
	stop  func()
}

func newHarness(t *testing.T, servers int) *harness {
	t.Helper()
	fab, err := fabric.New(fabric.Config{Ports: servers, Rate: fabric.IB4xQDR, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.TwoSocket()
	h := &harness{topo: topo}
	eps := make([]*nic.Endpoint, servers)
	for i := 0; i < servers; i++ {
		pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
		m, err := mux.New(mux.Config{Server: i, Servers: servers, Topology: topo, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		ep := nic.New(fab, i, nic.RDMA(), m.RecvAlloc, m.OnRecv, m.OnInline)
		m.SetTransport(ep)
		eng, err := engine.New(engine.Config{Topology: topo, Workers: 3, MorselSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		h.muxes = append(h.muxes, m)
		h.pools = append(h.pools, pool)
		h.engs = append(h.engs, eng)
		eps[i] = ep
	}
	fab.Start()
	for _, m := range h.muxes {
		m.Start()
	}
	h.stop = func() {
		for i, m := range h.muxes {
			h.engs[i].Close()
			m.Close()
			eps[i].Close()
		}
		fab.Stop()
	}
	t.Cleanup(h.stop)
	return h
}

func rows(n, server int) *storage.Batch {
	schema := storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "tag", Type: storage.TString},
	)
	b := storage.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i), fmt.Sprintf("s%d-%d", server, i))
	}
	return b
}

// receive runs src as a receive pipeline on eng, the way a compiled plan
// does, and returns the batches it yielded.
func receive(t *testing.T, eng *engine.Engine, src *Source) []*storage.Batch {
	sink := &op.Collector{}
	if err := eng.RunPipeline(&engine.Pipeline{Name: "recv", Source: src, Sink: sink}); err != nil {
		t.Error(err)
	}
	return sink.Batches()
}

// runExchange pushes each server's rows through a Send sink configured
// with route's mode and range map, and collects what each server's Source
// yields.
func runExchange(t *testing.T, servers int, route SendConfig, rowsPer int) []map[string]bool {
	t.Helper()
	h := newHarness(t, servers)
	schema := rows(1, 0).Schema
	codec := ser.NewCodec(schema)

	recvs := make([]*mux.ExchangeRecv, servers)
	for i, m := range h.muxes {
		recvs[i] = m.OpenExchange(0, 1, servers)
	}
	var wg sync.WaitGroup
	got := make([]map[string]bool, servers)
	for i := 0; i < servers; i++ {
		i := i
		got[i] = map[string]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := NewSend(SendConfig{
				Mux:        h.muxes[i],
				Pool:       h.pools[i],
				ExID:       1,
				Mode:       route.Mode,
				Ranges:     route.Ranges,
				Servers:    servers,
				Keys:       []int{0},
				Codec:      codec,
				NumWorkers: h.engs[i].Workers(),
			})
			if err := h.engs[i].RunPipeline(&engine.Pipeline{
				Name:   "send",
				Source: op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{rows(rowsPer, i)}, 16)),
				Sink:   send,
			}); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := &Source{Recv: recvs[i], Codec: codec, Topo: h.topo, Scale: 0.001}
			for _, b := range receive(t, h.engs[i], src) {
				for r := 0; r < b.Rows(); r++ {
					got[i][b.Cols[1].Str[r]] = true
				}
			}
		}()
	}
	wg.Wait()
	return got
}

func TestPartitionExchangeCompleteAndDisjoint(t *testing.T) {
	const servers, rowsPer = 3, 200
	got := runExchange(t, servers, SendConfig{Mode: ModePartition}, rowsPer)
	union := map[string]int{}
	for _, g := range got {
		for tag := range g {
			union[tag]++
		}
	}
	if len(union) != servers*rowsPer {
		t.Fatalf("union has %d tags, want %d", len(union), servers*rowsPer)
	}
	for tag, c := range union {
		if c != 1 {
			t.Fatalf("tag %s delivered to %d servers (partitioning must be disjoint)", tag, c)
		}
	}
	// Same key from different servers must land on the same server.
	keyHome := map[string]int{}
	for srv, g := range got {
		for tag := range g {
			var s, k int
			fmt.Sscanf(tag, "s%d-%d", &s, &k)
			key := fmt.Sprintf("%d", k)
			if prev, ok := keyHome[key]; ok && prev != srv {
				t.Fatalf("key %s split across servers %d and %d", key, prev, srv)
			}
			keyHome[key] = srv
		}
	}
}

func TestBroadcastExchangeReachesEveryone(t *testing.T) {
	const servers, rowsPer = 3, 50
	got := runExchange(t, servers, SendConfig{Mode: ModeBroadcast}, rowsPer)
	for srv, g := range got {
		if len(g) != servers*rowsPer {
			t.Fatalf("server %d saw %d rows, want all %d", srv, len(g), servers*rowsPer)
		}
	}
}

func TestGatherExchangeCoordinatorOnly(t *testing.T) {
	const servers, rowsPer = 3, 60
	h := newHarness(t, servers)
	schema := rows(1, 0).Schema
	codec := ser.NewCodec(schema)
	recv := h.muxes[0].OpenExchange(0, 1, servers) // coordinator only
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := NewSend(SendConfig{
				Mux: h.muxes[i], Pool: h.pools[i], ExID: 1, Mode: ModeGather,
				Servers: servers, Codec: codec, NumWorkers: h.engs[i].Workers(),
			})
			if err := h.engs[i].RunPipeline(&engine.Pipeline{
				Name:   "send",
				Source: op.NewBatchSource([]*storage.Batch{rows(rowsPer, i)}),
				Sink:   send,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	count := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := &Source{Recv: recv, Codec: codec, Topo: h.topo, Scale: 0.001}
		for _, b := range receive(t, h.engs[0], src) {
			count += b.Rows()
		}
	}()
	wg.Wait()
	if count != servers*rowsPer {
		t.Fatalf("coordinator received %d rows, want %d", count, servers*rowsPer)
	}
}

func TestMessagePoolRecycledAcrossExchange(t *testing.T) {
	const servers = 2
	got := runExchange(t, servers, SendConfig{Mode: ModePartition}, 500)
	if len(got[0])+len(got[1]) != servers*500 {
		t.Fatal("rows lost")
	}
}

// TestFinalizeBuffersNUMALocal: under AllocLocal, the flush and
// Last-marker buffers allocated by FinalizeOn must be homed on the
// finalizing worker's socket, not socket 0.
func TestFinalizeBuffersNUMALocal(t *testing.T) {
	h := newHarness(t, 1)
	schema := rows(1, 0).Schema
	codec := ser.NewCodec(schema)
	recv := h.muxes[0].OpenExchange(0, 1, 1)
	send := NewSend(SendConfig{
		Mux: h.muxes[0], Pool: h.pools[0], ExID: 1, Mode: ModePartition,
		Servers: 1, Keys: []int{0}, Codec: codec, NumWorkers: h.engs[0].Workers(),
	})
	w := &engine.Worker{ID: 0, Node: 1} // socket 1 worker
	send.Consume(w, rows(5, 0))
	if err := send.FinalizeOn(w); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		msg, done := recv.TryRecv(1)
		if msg == nil {
			if done {
				break
			}
			continue
		}
		seen++
		if msg.Node != 1 {
			t.Fatalf("finalize buffer homed on node %d, want the finalizing worker's node 1", msg.Node)
		}
		msg.Release()
	}
	if seen < 2 { // at least the data flush and the Last marker
		t.Fatalf("received %d messages, want >= 2", seen)
	}
}

// TestCorruptMessagePropagatesError: a message that fails deserialization
// must cancel the run through the scheduler's per-pipeline error path
// (FallibleSource), naming the pipeline — not via panic recovery.
func TestCorruptMessagePropagatesError(t *testing.T) {
	h := newHarness(t, 1)
	schema := rows(1, 0).Schema // (int64 k, string tag)
	codec := ser.NewCodec(schema)
	recv := h.muxes[0].OpenExchange(0, 1, 1)

	// A row whose string length field claims far more bytes than follow.
	msg := h.pools[0].Get(0)
	msg.ExchangeID = 1
	msg.Sender = 0
	msg.Seq = 0
	msg.Content = append(msg.Content, 1, 2, 3, 4, 5, 6, 7, 8) // k
	msg.Content = append(msg.Content, 0xff, 0xff, 0xff, 0x7f) // tag length: 2 GB
	h.muxes[0].Send(0, msg)

	sink := &op.Collector{}
	err := h.engs[0].RunPipeline(&engine.Pipeline{
		Name:   "recv",
		Source: &Source{Recv: recv, Codec: codec, Topo: h.topo, Scale: 0.001},
		Sink:   sink,
	})
	if err == nil {
		t.Fatal("corrupt message did not abort the run")
	}
	if !strings.Contains(err.Error(), "recv") || !strings.Contains(err.Error(), "corrupt message") {
		t.Fatalf("error does not name the pipeline and cause: %v", err)
	}
}

// skewRows builds a probe batch where roughly half the rows carry the hot
// key and the rest spread over cold keys, each row tagged with its origin.
func skewRows(n, server int, hotKey int64, coldKeys int) *storage.Batch {
	schema := storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "tag", Type: storage.TString},
	)
	b := storage.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		k := hotKey
		if i%2 == 0 {
			k = int64(1000 + (server*n+i)%coldKeys)
		}
		b.AppendRow(k, fmt.Sprintf("s%d-%d", server, i))
	}
	return b
}

// TestSkewAdaptiveExchange drives the full adaptive flow at the exchange
// level: 3 servers sample a hot-key-heavy probe stream, agree on the hot
// set via the sketch control exchange, and then (a) hot probe tuples stay
// on their origin server, (b) cold keys land on exactly one server,
// (c) hot build rows are replicated to every server and cold build rows
// to exactly one.
func TestSkewAdaptiveExchange(t *testing.T) {
	const (
		servers  = 3
		rowsPer  = 3000
		hotKey   = int64(42)
		coldKeys = 50
	)
	h := newHarness(t, servers)
	probeSchema := skewRows(1, 0, hotKey, coldKeys).Schema
	probeCodec := ser.NewCodec(probeSchema)
	buildSchema := storage.NewSchema(
		storage.Field{Name: "k", Type: storage.TInt64},
		storage.Field{Name: "btag", Type: storage.TString},
	)
	buildCodec := ser.NewCodec(buildSchema)

	skCfg := SkewConfig{SampleBudget: 512, HotFraction: 0.2, MaxHot: 8}
	coords := make([]*SkewCoord, servers)
	probeRecvs := make([]*mux.ExchangeRecv, servers)
	buildRecvs := make([]*mux.ExchangeRecv, servers)
	for i, m := range h.muxes {
		coords[i] = NewSkewCoord(SkewCoordConfig{
			ControlConfig: ControlConfig{Mux: m, Pool: h.pools[i], ExID: 7, Servers: servers}, Config: skCfg,
		})
		probeRecvs[i] = m.OpenExchange(0, 8, servers)
		buildRecvs[i] = m.OpenExchange(0, 9, servers)
	}

	// Per server: one graph with the probe send, the skew round, the build
	// send and the probe send's flush.
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		i := i
		probeSend := NewSend(SendConfig{
			Mux: h.muxes[i], Pool: h.pools[i], ExID: 8, Mode: ModeSkewProbe,
			Servers: servers, Keys: []int{0}, Codec: probeCodec,
			NumWorkers: h.engs[i].Workers(), Skew: coords[i],
		})
		build := storage.NewBatch(buildSchema, coldKeys+1)
		build.AppendRow(hotKey, fmt.Sprintf("b%d-hot", i))
		for k := 0; k < coldKeys; k++ {
			if k%servers == i { // each server owns a share of the cold build keys
				build.AppendRow(int64(1000+k), fmt.Sprintf("b%d-%d", i, k))
			}
		}
		buildSend := NewSend(SendConfig{
			Mux: h.muxes[i], Pool: h.pools[i], ExID: 9, Mode: ModeSkewBuild,
			Servers: servers, Keys: []int{0}, Codec: buildCodec,
			NumWorkers: h.engs[i].Workers(), Skew: coords[i],
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := skewGraph(op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{skewRows(rowsPer, i, hotKey, coldKeys)}, 64)),
				probeSend, coords[i], op.NewBatchSource([]*storage.Batch{build}), buildSend, op.EmptySource{})
			if _, err := h.engs[i].RunGraph(g, engine.RunOptions{Coordinator: i == 0}); err != nil {
				t.Error(err)
			}
		}()
	}

	type recvRow struct {
		key int64
		tag string
	}
	drain := func(recvs []*mux.ExchangeRecv, codec *ser.Codec) [][]recvRow {
		out := make([][]recvRow, servers)
		var dwg sync.WaitGroup
		for i := 0; i < servers; i++ {
			i := i
			dwg.Add(1)
			go func() {
				defer dwg.Done()
				src := &Source{Recv: recvs[i], Codec: codec, Topo: h.topo, Scale: 0.001}
				for _, b := range receive(t, h.engs[i], src) {
					for r := 0; r < b.Rows(); r++ {
						out[i] = append(out[i], recvRow{b.Cols[0].I64[r], b.Cols[1].Str[r]})
					}
				}
			}()
		}
		dwg.Wait()
		return out
	}
	probeGot := drain(probeRecvs, probeCodec)
	buildGot := drain(buildRecvs, buildCodec)
	wg.Wait()

	for i, c := range coords {
		if !c.Ready() {
			t.Fatalf("server %d: skew decision never published", i)
		}
		if !c.Hot(storage.HashI64(hotKey)) {
			t.Fatalf("server %d: hot key not detected (stats %+v)", i, c.Stats())
		}
	}

	// (a)+(b): probe side complete, hot rows on their origin server, cold
	// keys on exactly one server.
	total := 0
	coldHome := map[int64]int{}
	for srv, rs := range probeGot {
		total += len(rs)
		for _, r := range rs {
			var origin, idx int
			fmt.Sscanf(r.tag, "s%d-%d", &origin, &idx)
			if r.key == hotKey {
				if origin != srv {
					t.Fatalf("hot probe row %q shipped from server %d to %d", r.tag, origin, srv)
				}
			} else {
				if prev, ok := coldHome[r.key]; ok && prev != srv {
					t.Fatalf("cold key %d split across servers %d and %d", r.key, prev, srv)
				}
				coldHome[r.key] = srv
			}
		}
	}
	if total != servers*rowsPer {
		t.Fatalf("probe side delivered %d rows, want %d", total, servers*rowsPer)
	}

	// (c): every server holds all hot build rows; cold build rows land once.
	coldBuild := map[string]int{}
	for srv, rs := range buildGot {
		hot := 0
		for _, r := range rs {
			if r.key == hotKey {
				hot++
			} else {
				coldBuild[r.tag]++
				if storage.PartitionOf(storage.HashI64(r.key), servers) != srv {
					t.Fatalf("cold build row %q landed on server %d, not its hash owner", r.tag, srv)
				}
			}
		}
		if hot != servers {
			t.Fatalf("server %d holds %d hot build rows, want one per sender (%d)", srv, hot, servers)
		}
	}
	for tag, cnt := range coldBuild {
		if cnt != 1 {
			t.Fatalf("cold build row %q delivered %d times", tag, cnt)
		}
	}
}

// skewGraph is a compiled skew-adaptive join's send side on one server:
// the probe send, the skew round, the build send (depending on the round)
// and the probe send's flush (depending on the send and the round).
func skewGraph(probeSrc engine.Source, probe *Send, coord *SkewCoord, buildSrc engine.Source, build *Send, flushSrc engine.Source) *engine.Graph {
	return &engine.Graph{Pipelines: []*engine.Pipeline{
		{Name: "probe-send", Source: probeSrc, Sink: probe},
		{Name: "skew-round", Source: coord, Sink: coord},
		{Name: "build-send", Source: buildSrc, Sink: build},
		{Name: "skew-flush", Source: flushSrc, Sink: SkewFlush{Send: probe}},
	}, Deps: [][]int{nil, nil, {1}, {0, 1}}}
}

// TestSkewRoundCancelReleases: a skew round that never completes — server
// 1 never sends its sketch — holds the build send and the flush, which
// never run, and no worker or goroutine waits on it. Cancelling the run
// returns engine.ErrCancelled, and once both servers close the query every
// buffer is back in its pool.
func TestSkewRoundCancelReleases(t *testing.T) {
	h := newHarness(t, 2)
	schema := skewRows(1, 0, 42, 5).Schema
	codec := ser.NewCodec(schema)
	coords := make([]*SkewCoord, 2)
	for i := range coords {
		coords[i] = NewSkewCoord(SkewCoordConfig{
			ControlConfig: ControlConfig{Mux: h.muxes[i], Pool: h.pools[i], ExID: 3, Servers: 2},
			Config:        SkewConfig{SampleBudget: 4},
		})
	}
	send := func(exID int32, mode Mode) *Send {
		return NewSend(SendConfig{Mux: h.muxes[0], Pool: h.pools[0], ExID: exID, Mode: mode, Servers: 2,
			Keys: []int{0}, Codec: codec, NumWorkers: h.engs[0].Workers(), Skew: coords[0]})
	}
	probe := op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{skewRows(200, 0, 42, 5)}, 16))
	build := &polledSource{Source: op.NewBatchSource([]*storage.Batch{skewRows(10, 0, 42, 5)})}
	flush := &polledSource{Source: op.EmptySource{}}
	g := skewGraph(probe, send(4, ModeSkewProbe), coords[0], build, send(5, ModeSkewBuild), flush)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.engs[0].RunGraph(g, engine.RunOptions{Coordinator: true, Context: ctx})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the run ended before the round could complete: %v", err)
	default:
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, engine.ErrCancelled) {
			t.Fatalf("run error = %v, want engine.ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not end the run")
	}
	if coords[0].Ready() {
		t.Fatal("the round published without server 1's sketch")
	}
	if b, f := build.polls.Load(), flush.polls.Load(); b != 0 || f != 0 {
		t.Fatalf("the build send was polled %d times and the flush %d, want neither before the round", b, f)
	}
	for _, m := range h.muxes {
		m.CloseQuery(0)
	}
	waitPoolsBalanced(t, h)
}
