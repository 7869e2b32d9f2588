package mux

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/nic"
	"hsqp/internal/numa"
	"hsqp/internal/sched"
)

// testCluster wires n muxes over a fast fabric with RDMA endpoints.
func testCluster(t *testing.T, n int, scheduling bool) ([]*Mux, func()) {
	t.Helper()
	fab, err := fabric.New(fabric.Config{Ports: n, Rate: fabric.IB4xQDR, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.TwoSocket()
	muxes := make([]*Mux, n)
	eps := make([]*nic.Endpoint, n)
	for i := 0; i < n; i++ {
		pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
		m, err := New(Config{Server: i, Servers: n, Topology: topo, Pool: pool, Scheduling: scheduling})
		if err != nil {
			t.Fatal(err)
		}
		ep := nic.New(fab, i, nic.RDMA(), m.RecvAlloc, m.OnRecv, m.OnInline)
		m.SetTransport(ep)
		muxes[i] = m
		eps[i] = ep
	}
	fab.Start()
	for _, m := range muxes {
		m.Start()
	}
	return muxes, func() {
		for i, m := range muxes {
			m.Close()
			eps[i].Close()
		}
		fab.Stop()
	}
}

func sendAll(m *Mux, pool *memory.Pool, exID int32, servers, msgsPerDst int) {
	for d := 0; d < servers; d++ {
		for k := 0; k < msgsPerDst; k++ {
			msg := pool.Get(0)
			msg.ExchangeID = exID
			msg.Sender = m.ServerID()
			msg.Seq = uint32(k)
			msg.Content = append(msg.Content, byte(d), byte(k))
			m.Send(d, msg)
		}
		last := pool.Get(0)
		last.ExchangeID = exID
		last.Sender = m.ServerID()
		last.Seq = uint32(msgsPerDst)
		last.Last = true
		m.Send(d, last)
	}
}

func TestAllToAllDelivery(t *testing.T) {
	for _, sched := range []bool{false, true} {
		t.Run(fmt.Sprintf("sched=%v", sched), func(t *testing.T) {
			const n = 4
			const msgs = 10
			muxes, stop := testCluster(t, n, sched)
			defer stop()
			topo := numa.TwoSocket()
			recvs := make([]*ExchangeRecv, n)
			for i, m := range muxes {
				recvs[i] = m.OpenExchange(0, 1, n)
			}
			var wg sync.WaitGroup
			got := make([]int, n)
			for i := range muxes {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
					sendAll(muxes[i], pool, 1, n, msgs)
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						msg := recvs[i].Recv(0)
						if msg == nil {
							return
						}
						if len(msg.Content) > 0 {
							got[i]++
						}
						msg.Release()
					}
				}()
			}
			wg.Wait()
			for i, g := range got {
				if g != n*msgs {
					t.Errorf("server %d received %d messages, want %d", i, g, n*msgs)
				}
				if !recvs[i].Drained() {
					t.Errorf("server %d exchange not drained", i)
				}
			}
		})
	}
}

func TestWorkStealingAcrossSockets(t *testing.T) {
	muxes, stop := testCluster(t, 1, false)
	defer stop()
	topo := numa.TwoSocket()
	pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
	recv := muxes[0].OpenExchange(0, 3, 1)
	// All messages homed on socket 1; the consumer sits on socket 0.
	for k := 0; k < 5; k++ {
		msg := pool.GetOn(1)
		msg.ExchangeID = 3
		msg.Sender = 0
		msg.Seq = uint32(k)
		msg.Content = append(msg.Content, byte(k))
		muxes[0].Send(0, msg)
	}
	last := pool.GetOn(1)
	last.ExchangeID = 3
	last.Sender = 0
	last.Seq = 5
	last.Last = true
	muxes[0].Send(0, last)

	seen := 0
	for {
		m := recv.Recv(0) // socket 0 worker must steal from socket 1
		if m == nil {
			break
		}
		if len(m.Content) > 0 {
			seen++
		}
		m.Release()
	}
	if seen != 5 {
		t.Fatalf("stole %d messages, want 5", seen)
	}
	if recv.StolenCount() == 0 {
		t.Fatal("steals not counted")
	}
}

func TestClassicModeRouting(t *testing.T) {
	muxes, stop := testCluster(t, 2, false)
	defer stop()
	topo := numa.TwoSocket()
	pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
	const workers = 3
	recv := muxes[1].OpenExchangeClassic(0, 5, 1, workers)

	// Address each worker individually from server 0. Sequence numbers are
	// per destination *server*, continuing across the worker partitions.
	for w := 0; w < workers; w++ {
		msg := pool.Get(0)
		msg.ExchangeID = 5
		msg.Sender = 0
		msg.Seq = uint32(w)
		msg.Part = int16(w)
		msg.Content = append(msg.Content, byte(w))
		muxes[0].Send(1, msg)
	}
	for w := 0; w < workers; w++ {
		last := pool.Get(0)
		last.ExchangeID = 5
		last.Sender = 0
		last.Seq = uint32(workers + w)
		last.Part = int16(w)
		last.Last = true
		muxes[0].Send(1, last)
	}
	// A classic Recv returns nil only once the whole exchange is drained,
	// so every worker lane needs its own consumer.
	payloads := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := recv.Recv(w); m != nil; m = recv.Recv(w) {
				if len(m.Content) > 0 {
					payloads[w] = append(payloads[w], append([]byte{}, m.Content...))
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
	for w, p := range payloads {
		if len(p) != 1 || p[0][0] != byte(w) {
			t.Fatalf("worker %d got %v, want exactly its own message", w, p)
		}
	}
	if recv.StolenCount() != 0 {
		t.Fatalf("classic exchange stole %d messages", recv.StolenCount())
	}
}

// TestSeqOrderingAssertion: a duplicate (or regressing) sequence number
// from one sender must trip the receive-side ordering assertion. Local
// sends route synchronously, so the panic surfaces on the caller.
func TestSeqOrderingAssertion(t *testing.T) {
	muxes, stop := testCluster(t, 1, false)
	defer stop()
	topo := numa.TwoSocket()
	pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
	muxes[0].OpenExchange(0, 11, 1)
	a := pool.Get(0)
	a.ExchangeID = 11
	a.Sender = 0
	a.Seq = 3
	a.Content = append(a.Content, 1)
	muxes[0].Send(0, a)
	b := pool.Get(0)
	b.ExchangeID = 11
	b.Sender = 0
	b.Seq = 3 // duplicate: must panic
	b.Content = append(b.Content, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate sequence number did not trip the ordering assertion")
		}
	}()
	muxes[0].Send(0, b)
}

// TestSeqGapsAllowed: gaps are legal (selective broadcast advances all of
// a sender's destination counters at once); only regressions panic.
func TestSeqGapsAllowed(t *testing.T) {
	muxes, stop := testCluster(t, 1, false)
	defer stop()
	topo := numa.TwoSocket()
	pool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
	recv := muxes[0].OpenExchange(0, 12, 1)
	for _, seq := range []uint32{0, 2, 7} {
		m := pool.Get(0)
		m.ExchangeID = 12
		m.Sender = 0
		m.Seq = seq
		m.Content = append(m.Content, byte(seq))
		muxes[0].Send(0, m)
	}
	last := pool.Get(0)
	last.ExchangeID = 12
	last.Sender = 0
	last.Seq = 8
	last.Last = true
	muxes[0].Send(0, last)
	n := 0
	for {
		m := recv.Recv(0)
		if m == nil {
			break
		}
		if len(m.Content) > 0 {
			n++
		}
		m.Release()
	}
	if n != 3 {
		t.Fatalf("received %d data messages, want 3", n)
	}
}

func TestDuplicateOpenPanics(t *testing.T) {
	muxes, stop := testCluster(t, 1, false)
	defer stop()
	muxes[0].OpenExchange(0, 7, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate OpenExchange did not panic")
		}
	}()
	muxes[0].OpenExchange(0, 7, 1)
}

// TestStatsCounters: the counters count. Every message of the exchange is
// small enough to go express, so nothing it sends waits for the network
// loop's first barrier: the barrier count is waited for, not read at once.
func TestStatsCounters(t *testing.T) {
	muxes, stop := testCluster(t, 2, true)
	defer stop()
	topo := numa.TwoSocket()
	recv0 := muxes[0].OpenExchange(0, 2, 2)
	recv1 := muxes[1].OpenExchange(0, 2, 2)
	var wg sync.WaitGroup
	for _, m := range muxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendAll(m, memory.NewPool(topo, numa.AllocLocal, 4096, nil), 2, 2, 4)
		}()
	}
	drain := func(r *ExchangeRecv) {
		for {
			m := r.Recv(0)
			if m == nil {
				return
			}
			m.Release()
		}
	}
	wg.Add(2)
	go func() { defer wg.Done(); drain(recv0) }()
	go func() { defer wg.Done(); drain(recv1) }()
	wg.Wait()
	s := muxes[0].Stats()
	if s.MsgsSent == 0 || s.LocalMsgs == 0 {
		t.Fatalf("stats not counting: %+v", s)
	}
	for deadline := time.Now().Add(5 * time.Second); muxes[0].Stats().SyncBarriers == 0; {
		if time.Now().After(deadline) {
			t.Fatal("scheduled mux performed no barriers")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeardCountsEveryFrame pins the failure detector's input: data frames,
// barriers and probe echoes all advance Heard for their source, a frozen
// peer falls silent, and Ping is "probe, then wait for Heard to advance".
func TestHeardCountsEveryFrame(t *testing.T) {
	muxes, stop := testCluster(t, 2, false)
	defer stop()
	if h := muxes[0].Heard(1); h != 0 {
		t.Fatalf("idle eager mesh: Heard(1) = %d before any frame, want 0", h)
	}
	if !muxes[0].Ping(1, 5*time.Second) {
		t.Fatal("Ping to a live peer timed out")
	}
	echoed := muxes[0].Heard(1)
	if echoed == 0 {
		t.Fatal("a probe echo did not advance Heard")
	}

	recv := muxes[0].OpenExchange(0, 1, 1)
	msg := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 4096, nil).Get(0)
	msg.ExchangeID, msg.Sender, msg.Last = 1, 1, true
	muxes[1].Send(0, msg)
	recv.Recv(0).Release()
	if muxes[0].Heard(1) <= echoed {
		t.Fatal("a data frame did not advance Heard")
	}

	muxes[1].Freeze(true)
	if muxes[0].Ping(1, 50*time.Millisecond) {
		t.Fatal("Ping to a frozen peer on an eager mesh succeeded")
	}

	sched, stopSched := testCluster(t, 2, true)
	defer stopSched()
	before := sched[0].Heard(1)
	for deadline := time.Now().Add(5 * time.Second); sched[0].Heard(1) == before; {
		if time.Now().After(deadline) {
			t.Fatal("scheduled mesh: no barrier advanced Heard without a probe")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedExchangeReleases: CloseQuery releases what an open exchange of
// the query still queues, a message pushed to the exchange after the close
// (a delivery that looked it up just before) is released, and a Recv
// blocked on the exchange returns nil instead of waiting for senders that
// will never finish. A message routed after the close, from the wire or
// from this server, and one for a query that never opened an exchange here
// find no exchange and are released and counted too.
func TestClosedExchangeReleases(t *testing.T) {
	muxes, stop := testCluster(t, 1, false)
	defer stop()
	m := muxes[0]
	pool := m.cfg.Pool
	msg := func(exID int32) *memory.Message {
		msg := pool.Get(0)
		msg.QueryID, msg.ExchangeID = 7, exID
		msg.Content = append(msg.Content, 1)
		return msg
	}
	waiting := m.OpenExchange(7, 1, 2) // two senders, none of which finishes
	queued := m.OpenExchange(7, 2, 2)
	m.Send(0, msg(2))
	got := make(chan *memory.Message, 1)
	go func() { got <- waiting.Recv(0) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("Recv returned %v on an open exchange with nothing queued", r)
	default:
	}
	m.CloseQuery(7)
	select {
	case r := <-got:
		if r != nil {
			t.Fatalf("Recv on a closed exchange returned a message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CloseQuery did not end a blocked Recv")
	}
	waiting.push(msg(1))
	if r, done := queued.TryRecv(0); r != nil || !done {
		t.Fatalf("TryRecv on a closed exchange = (%v, %v), want (nil, true)", r, done)
	}
	m.OnRecv(msg(2)) // a straggler of query 7 off the wire
	stranger := msg(0)
	stranger.QueryID = 8 // no exchange of query 8 was ever opened here
	m.Send(0, stranger)
	if st := pool.Stats(); st.Allocated+st.Recycled != st.Returned {
		t.Fatalf("%d buffers taken, %d returned", st.Allocated+st.Recycled, st.Returned)
	}
	if dropped := m.Stats().DroppedMsgs; dropped != 4 {
		t.Fatalf("%d messages dropped, want the queued one, the late push, the routed straggler and the never-opened query's", dropped)
	}
	if n := m.OpenExchanges(); n != 0 {
		t.Fatalf("%d exchanges open after CloseQuery", n)
	}
}

// TestPeerDownCompletesParkedBarrier: on a scheduled mesh whose server 2
// has stopped, servers 0 and 1 park on a barrier from 2. A message queued
// for server 1 leaves server 0's loop parked (it cannot change the wait);
// PeerDown(2) wakes it, the phase completes without the barrier, and the
// schedule carries the message to server 1.
func TestPeerDownCompletesParkedBarrier(t *testing.T) {
	muxes, stop := testCluster(t, 3, true)
	defer stop()
	muxes[2].Close()
	if !awaitParked(muxes[0], sched.Wait, 2) || !awaitParked(muxes[1], sched.Wait, 2) {
		t.Fatal("the survivors did not park on a barrier from the stopped server")
	}

	arrived := queueBulk(t, muxes[0], muxes[1])
	if !parkedOn(muxes[0], sched.Wait, 2) {
		t.Fatal("a Send woke a loop parked on a barrier")
	}

	for _, m := range muxes[:2] {
		m.PeerDown(2)
	}
	if !arrived() {
		t.Fatal("the queued message did not arrive after PeerDown")
	}
}

// parkedOn reports whether m's network loop is parked on a wait of kind
// for source src (−1: for no barrier).
func parkedOn(m *Mux, kind sched.Kind, src int) bool {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	return m.parked && m.wait.Kind == kind && m.wait.Peer == src
}

// queueBulk sends a Last message too large for express from src to dst,
// so it queues for src's network loop, and returns a function that waits
// up to 5 s for dst to receive it.
func queueBulk(t *testing.T, src, dst *Mux) (arrived func() bool) {
	recv := dst.OpenExchange(0, 4, 1)
	msg := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 8192, nil).Get(0)
	msg.ExchangeID, msg.Sender, msg.Last = 4, src.ServerID(), true
	msg.Content = msg.Content[:src.bdp+1]
	src.Send(dst.ServerID(), msg)
	return func() bool {
		got := make(chan *memory.Message, 1)
		go func() { got <- recv.Recv(0) }()
		select {
		case r := <-got:
			if r == nil || !r.Last {
				t.Fatalf("server %d received %v, want the queued message", dst.ServerID(), r)
			}
			r.Release()
			return true
		case <-time.After(5 * time.Second):
			return false
		}
	}
}

// awaitParked polls parkedOn for up to 5 s.
func awaitParked(m *Mux, kind sched.Kind, src int) bool {
	for deadline := time.Now().Add(5 * time.Second); !parkedOn(m, kind, src); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestEagerIdleLoopWakesOnSend: an eager loop whose pass moved nothing
// parks on Idle with no pace to end it, so only a Send can give it work.
// A message too large for express queues behind that park and must still
// arrive.
func TestEagerIdleLoopWakesOnSend(t *testing.T) {
	muxes, stop := testCluster(t, 2, false)
	defer stop()
	if !awaitParked(muxes[0], sched.Idle, -1) {
		t.Fatal("an idle eager loop did not park on Idle")
	}

	if !queueBulk(t, muxes[0], muxes[1])() {
		t.Fatal("a Send did not wake the idle eager loop")
	}
}
