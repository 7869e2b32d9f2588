package exchange

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/op"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// hashCol returns the key hashes of keys as a kept-hash column, the form
// the build send hands to SemiFilter.sendFilter.
func hashCol(keys []int64) *storage.Column {
	c := storage.NewColumn(storage.TInt64, false, len(keys))
	for _, k := range keys {
		c.AppendI64(int64(storage.HashI64(k)))
	}
	return c
}

// encodeFilter encodes a filter of 1<<lg bits over keys, as sendFilter
// does.
func encodeFilter(lg int, keys []int64) []byte {
	out := append([]byte{byte(lg)}, make([]byte, 1<<lg/8)...)
	setFilter(out[1:], hashCol(keys))
	return out
}

// filterMsg encodes a filter of 1<<lg bits over keys into a pooled message
// from sender.
func filterMsg(pool *memory.Pool, sender, lg int, keys []int64) *memory.Message {
	msg := pool.Get(0)
	msg.Sender = sender
	msg.Content = append(msg.Content, encodeFilter(lg, keys)...)
	return msg
}

// mergedFilter is a SemiFilter with no control exchange, for driving
// merge directly.
func mergedFilter(t *testing.T, pool *memory.Pool, msgs []*memory.Message) *SemiFilter {
	t.Helper()
	f := &SemiFilter{maxLg: 20}
	if err := f.merge(msgs); err != nil {
		t.Fatal(err)
	}
	releaseAll(msgs)
	return f
}

// TestSemiFilterNoFalseNegatives: whatever sizes the servers chose, the
// fold-and-merge keeps every server's every key.
func TestSemiFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 1<<17, nil)
	for trial := 0; trial < 200; trial++ {
		servers := 1 + rng.Intn(5)
		keys := make([][]int64, servers)
		msgs := make([]*memory.Message, servers)
		for s := range keys {
			keys[s] = make([]int64, rng.Intn(3000))
			for i := range keys[s] {
				keys[s][i] = rng.Int63n(1 << 40)
			}
			msgs[s] = filterMsg(pool, s, minFilterLg+rng.Intn(10), keys[s])
		}
		f := mergedFilter(t, pool, msgs)
		for s, ks := range keys {
			for _, k := range ks {
				if !f.may(storage.HashI64(k)) {
					t.Fatalf("trial %d: key %d of server %d (of %d) missing from the merged filter", trial, k, s, servers)
				}
			}
		}
	}
}

// TestSemiFilterFalsePositiveRate: at the sizing rule, with every server
// sizing its filter from its own row count, at most 3 % of absent keys
// pass — for dense keys (TPC-H's) and sparse ones.
func TestSemiFilterFalsePositiveRate(t *testing.T) {
	const servers, perServer, probes = 3, 2000, 200_000
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 0, nil)
	rng := rand.New(rand.NewSource(2))
	for _, dense := range []bool{true, false} {
		present := map[int64]bool{}
		msgs := make([]*memory.Message, servers)
		for s := range msgs {
			keys := make([]int64, perServer)
			for i := range keys {
				if dense {
					keys[i] = int64(s*perServer + i)
				} else {
					keys[i] = rng.Int63()
				}
				present[keys[i]] = true
			}
			msgs[s] = filterMsg(pool, s, filterLg(perServer, servers, pool.MessageSize()), keys)
		}
		f := mergedFilter(t, pool, msgs)
		pass, absent := 0, 0
		for i := 0; absent < probes; i++ {
			k := int64(i) + servers*perServer
			if !dense {
				k = rng.Int63()
			}
			if present[k] {
				continue
			}
			absent++
			if f.may(storage.HashI64(k)) {
				pass++
			}
		}
		rate := float64(pass) / probes
		t.Logf("dense=%v: %d bits for %d keys, false-positive rate %.4f", dense, f.mask+1, servers*perServer, rate)
		if rate > 0.03 {
			t.Errorf("dense=%v: false-positive rate %.4f, want at most 0.03", dense, rate)
		}
	}
}

// TestSemiFilterSizing: the rule's bounds — at least 512 bits, about ten
// bits per key cluster-wide, never more than one message holds.
func TestSemiFilterSizing(t *testing.T) {
	for _, c := range []struct{ rows, servers, capacity, want int }{
		{0, 3, 1 << 19, minFilterLg},
		{1, 1, 1 << 19, minFilterLg},
		{1507, 3, 1 << 19, 16}, // 45 210 bits → 2^16
		{1 << 20, 4, 1 << 19, 21},
		{1 << 20, 4, 4096, 14}, // 1 + 2^15/8 bytes would not fit
	} {
		if got := filterLg(c.rows, c.servers, c.capacity); got != c.want {
			t.Errorf("filterLg(%d rows, %d servers, %d B) = %d, want %d", c.rows, c.servers, c.capacity, got, c.want)
		}
	}
}

// TestSemiJoinExchange drives a filtered build, the filter's round and a
// probe shuffle that depends on it on 3 servers: every probe row with a build partner arrives, on its key's
// server; most rows without one stay home; every server merged the same
// filter; and the build send's wire bytes include its filter.
func TestSemiJoinExchange(t *testing.T) {
	const servers, probePer = 3, 3000
	h := newHarness(t, servers)
	schema := rows(1, 0).Schema
	codec := ser.NewCodec(schema)
	filters := make([]*SemiFilter, servers)
	buildRecvs := make([]*mux.ExchangeRecv, servers)
	probeRecvs := make([]*mux.ExchangeRecv, servers)
	for i, m := range h.muxes {
		filters[i] = NewSemiFilter(ControlConfig{Mux: m, Pool: h.pools[i], ExID: 4, Servers: servers})
		buildRecvs[i] = m.OpenExchange(0, 5, servers)
		probeRecvs[i] = m.OpenExchange(0, 6, servers)
	}
	// Build keys: every 50th probe key, spread over the servers.
	builds := make([]*storage.Batch, servers)
	for i := range builds {
		builds[i] = storage.NewBatch(schema, 0)
	}
	for k := 0; k < probePer; k += 50 {
		builds[k%servers].AppendRow(int64(k), "b")
	}
	sends := make([]*Send, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		build := NewSend(SendConfig{
			Mux: h.muxes[i], Pool: h.pools[i], ExID: 5, Mode: ModePartition, Servers: servers,
			Keys: []int{0}, Codec: codec, NumWorkers: h.engs[i].Workers(), BuildFilter: filters[i],
		})
		sends[i] = build
		probe := NewSend(SendConfig{
			Mux: h.muxes[i], Pool: h.pools[i], ExID: 6, Mode: ModePartition, Servers: servers,
			Keys: []int{0}, Codec: codec, NumWorkers: h.engs[i].Workers(), ProbeFilter: filters[i],
		})
		g := &engine.Graph{Pipelines: []*engine.Pipeline{
			{Name: "build-send", Source: op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{builds[i]}, 8)), Sink: build},
			{Name: "semi-filter", Source: filters[i], Sink: filters[i]},
			{Name: "probe-send",
				Source: op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{rows(probePer, i)}, 64)),
				Sink:   probe},
		}, Deps: [][]int{nil, nil, {1}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h.engs[i].RunGraph(g, engine.RunOptions{Coordinator: i == 0}); err != nil {
				t.Error(err)
			}
		}()
	}
	got := make([][]*storage.Batch, servers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			receive(t, h.engs[i], &Source{Recv: buildRecvs[i], Codec: codec})
			got[i] = receive(t, h.engs[i], &Source{Recv: probeRecvs[i], Codec: codec})
		}()
	}
	wg.Wait()

	for i, f := range filters[1:] {
		if f.mask != filters[0].mask || !slices.Equal(f.words, filters[0].words) {
			t.Fatalf("server %d merged a different filter than server 0", i+1)
		}
	}
	shipped, partners := 0, map[int64]int{}
	for srv, bs := range got {
		for _, b := range bs {
			for r := 0; r < b.Rows(); r++ {
				k := b.Cols[0].I64[r]
				shipped++
				if k%50 == 0 {
					partners[k]++
				}
				if p := storage.PartitionOf(storage.HashI64(k), servers); p != srv {
					t.Fatalf("probe key %d landed on server %d, its hash owner is %d", k, srv, p)
				}
			}
		}
	}
	for k := 0; k < probePer; k += 50 {
		if partners[int64(k)] != servers {
			t.Fatalf("probe key %d arrived %d times, want once from each of %d servers", k, partners[int64(k)], servers)
		}
	}
	withPartner := servers * probePer / 50
	if shipped > withPartner+servers*probePer/20 {
		t.Fatalf("shipped %d probe rows, %d have a partner: the filter passes more than 5 %% of the rest", shipped, withPartner)
	}
	// The build send's bytes: its rows' messages, the Last markers and one
	// filter message per server.
	filterWire := uint64(memory.HeaderSize+1+1<<minFilterLg/8) * servers
	for i, s := range sends {
		if s.BytesSent() < filterWire+servers*memory.HeaderSize {
			t.Fatalf("server %d: build send reports %d wire bytes, less than its filter and Last markers", i, s.BytesSent())
		}
	}
}

// TestSemiFilterCancelUnblocks: a query cancelled while a peer's filter is
// missing ends with engine.ErrCancelled; the probe send, which depends on
// the round, never took a morsel, and once both servers close the query
// every message of the round is back in its pool.
func TestSemiFilterCancelUnblocks(t *testing.T) {
	h := newHarness(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	f := NewSemiFilter(ControlConfig{Mux: h.muxes[0], Pool: h.pools[0], ExID: 3, Servers: 2})
	// Server 1 "crashed": it never opens the exchange or sends its filter.
	src := &polledSource{Source: op.NewBatchSource([]*storage.Batch{rows(10, 0)})}
	g := semiGraph(f, src)
	done := make(chan error, 1)
	go func() {
		_, err := h.engs[0].RunGraph(g, engine.RunOptions{Coordinator: true, Context: ctx})
		done <- err
	}()
	f.sendFilter(&engine.Worker{}, []workerSendState{{kept: hashCol([]int64{1, 2, 3})}})
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the run ended before the filter was merged: %v", err)
	default:
	}
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not end the run")
	}
	if n := src.polls.Load(); n != 0 {
		t.Fatalf("the probe source was polled %d times, want none: the filter was never merged", n)
	}
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("run error = %v, want engine.ErrCancelled", err)
	}
	if f.Ready() {
		t.Fatal("a cancelled round must not publish")
	}
	// Server 0's round still queues its own filter; server 1 never opened
	// the exchange. Closing the query releases both copies.
	for _, m := range h.muxes {
		m.CloseQuery(0)
	}
	waitPoolsBalanced(t, h)
}

// semiGraph is a filter's round and a probe send over src that depends on
// it (its sink collects, the filter's membership test left out).
func semiGraph(f *SemiFilter, src engine.Source) *engine.Graph {
	return &engine.Graph{Pipelines: []*engine.Pipeline{
		{Name: "semi-filter", Source: f, Sink: f},
		{Name: "probe-send", Source: src, Sink: &op.Collector{}},
	}, Deps: [][]int{nil, {0}}}
}

// waitPoolsBalanced waits until every buffer taken from each server's
// pool has been returned.
func waitPoolsBalanced(t *testing.T, h *harness) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; {
		st := h.pools[i].Stats()
		if st.Allocated+st.Recycled == st.Returned {
			if i++; i == len(h.pools) {
				return
			}
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("server %d: %d messages taken, %d returned", i, st.Allocated+st.Recycled, st.Returned)
		}
		time.Sleep(time.Millisecond)
	}
}

// polledSource counts the polls its source receives.
type polledSource struct {
	engine.Source
	polls atomic.Int64
}

func (s *polledSource) Poll(w *engine.Worker) (*storage.Batch, bool) {
	s.polls.Add(1)
	return s.Source.Poll(w)
}

// TestMalformedFilterFailsQuery: a filter message that breaks the format
// fails the round with an error naming the round's pipeline, the exchange
// and the sender; the probe send that depends on it never runs.
func TestMalformedFilterFailsQuery(t *testing.T) {
	h := newHarness(t, 2)
	f := NewSemiFilter(ControlConfig{Mux: h.muxes[0], Pool: h.pools[0], ExID: 3, Servers: 2})
	bad := h.pools[1].Get(0)
	bad.ExchangeID, bad.Sender, bad.Last = 3, 1, true
	bad.Content = append(bad.Content, minFilterLg, 0xff) // 2^9 bits in one byte
	h.muxes[1].Send(0, bad)
	f.sendFilter(&engine.Worker{}, nil)
	src := &polledSource{Source: op.NewBatchSource([]*storage.Batch{rows(10, 0)})}
	_, err := h.engs[0].RunGraph(semiGraph(f, src), engine.RunOptions{Coordinator: true})
	if err == nil {
		t.Fatal("a malformed filter did not fail the run")
	}
	if n := src.polls.Load(); n != 0 {
		t.Fatalf("the probe source was polled %d times after a failed round", n)
	}
	for _, want := range []string{`pipeline "semi-filter"`, "exchange 3", "server 1", "semi-join filter"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestLocalSemiJoinExchange drives a range-routed join whose build rows
// already lie on their owners, on 3 servers: the build send keeps every
// row home and sets each server's local filter, and the probe send, which
// depends on the build send alone (no round), tests only the rows it
// keeps. Every probe row with a build partner arrives at its key's owner;
// the rows a server keeps are mostly those with a partner; the rows it
// routes elsewhere all arrive, untested; and no filter reaches the wire.
func TestLocalSemiJoinExchange(t *testing.T) {
	const servers, probePer, span = 3, 3000, 1000
	h := newHarness(t, servers)
	schema := rows(1, 0).Schema
	codec := ser.NewCodec(schema)
	m := &RangeMap{Lo: []int64{math.MinInt64, span, 2 * span}}
	buildRecvs := make([]*mux.ExchangeRecv, servers)
	probeRecvs := make([]*mux.ExchangeRecv, servers)
	for i, mx := range h.muxes {
		buildRecvs[i] = mx.OpenExchange(0, 5, servers)
		probeRecvs[i] = mx.OpenExchange(0, 6, servers)
	}
	sends := make([]*Send, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		// Build keys: every 50th key of the server's own range.
		build := storage.NewBatch(schema, 0)
		for k := i * span; k < (i+1)*span; k += 50 {
			build.AppendRow(int64(k), "b")
		}
		f := NewLocalSemiFilter()
		cfg := SendConfig{Mux: h.muxes[i], Pool: h.pools[i], Mode: ModePartition, Servers: servers,
			Keys: []int{0}, Codec: codec, NumWorkers: h.engs[i].Workers(), Ranges: m}
		bc, pc := cfg, cfg
		bc.ExID, bc.BuildFilter = 5, f
		pc.ExID, pc.ProbeFilter = 6, f
		sends[i] = NewSend(bc)
		g := &engine.Graph{Pipelines: []*engine.Pipeline{
			{Name: "build-send", Source: op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{build}, 8)), Sink: sends[i]},
			{Name: "probe-send",
				Source: op.NewBatchSource(op.SplitIntoMorsels([]*storage.Batch{rows(probePer, i)}, 64)),
				Sink:   NewSend(pc)},
		}, Deps: [][]int{nil, {0}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h.engs[i].RunGraph(g, engine.RunOptions{Coordinator: i == 0}); err != nil {
				t.Error(err)
			}
		}()
	}
	builds := make([][]*storage.Batch, servers)
	got := make([][]*storage.Batch, servers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			builds[i] = receive(t, h.engs[i], &Source{Recv: buildRecvs[i], Codec: codec})
			got[i] = receive(t, h.engs[i], &Source{Recv: probeRecvs[i], Codec: codec})
		}()
	}
	wg.Wait()

	for srv, bs := range builds {
		for _, b := range bs {
			for r := 0; r < b.Rows(); r++ {
				if k := b.Cols[0].I64[r]; m.Owner(k) != srv {
					t.Fatalf("build key %d landed on server %d, its owner is %d", k, srv, m.Owner(k))
				}
			}
		}
	}
	kept, partners := make([]int, servers), map[int64]int{}
	for srv, bs := range got {
		from := make([]int, servers)
		for _, b := range bs {
			for r := 0; r < b.Rows(); r++ {
				k := b.Cols[0].I64[r]
				if m.Owner(k) != srv {
					t.Fatalf("probe key %d landed on server %d, its owner is %d", k, srv, m.Owner(k))
				}
				var sender, i int
				fmt.Sscanf(b.Cols[1].Str[r], "s%d-%d", &sender, &i)
				from[sender]++
				if k%50 == 0 {
					partners[k]++
				}
			}
		}
		for sender, n := range from {
			if sender != srv && n != span {
				t.Errorf("server %d got %d rows from server %d, want all %d it routes there", srv, n, sender, span)
			}
		}
		kept[srv] = from[srv]
	}
	for k := 0; k < probePer; k += 50 {
		if partners[int64(k)] != servers {
			t.Fatalf("probe key %d arrived %d times, want once from each of %d servers", k, partners[int64(k)], servers)
		}
	}
	for srv, n := range kept {
		if n > span/50+span/20 {
			t.Errorf("server %d kept %d probe rows, %d have a partner: the filter passes more than 5 %% of the rest", srv, n, span/50)
		}
	}
	for i, s := range sends {
		// One data message and a Last marker per server.
		if s.BytesSent() > (servers+1)*memory.HeaderSize+uint64(span/50*16) {
			t.Errorf("server %d: build send reports %d wire bytes, more than its rows, their message and Last markers", i, s.BytesSent())
		}
	}
}
