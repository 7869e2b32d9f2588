package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/nic"
	"hsqp/internal/numa"
	"hsqp/internal/report"
)

// figure4 prints the memory-bus trips of the classic I/O model vs data
// direct I/O (§2.1.1): DDIO cuts 3 bus transfers per side to 1, and NUIOA
// restricts DDIO to the NIC-local socket.
func figure4(w io.Writer, _ Args) error {
	tab := &report.Table{
		Title:  "Figure 4: memory-bus traffic per payload byte (model)",
		Header: []string{"configuration", "sender reads", "sender writes", "receiver reads", "receiver writes"},
	}
	// Classic I/O: app buffer read from RAM, socket-buffer copy through
	// RAM, NIC reads from RAM; receiver mirrors it.
	tab.Add("classic I/O", "3.00", "2.00", "2.00", "3.00")
	// DDIO, NIC-local thread: the paper's PCM measurement.
	tab.Add("DDIO, NUIOA-local", "1.03", "0.00", "0.00", "1.02")
	// DDIO defeated by a NUIOA-remote network thread.
	tab.Add("DDIO, NUIOA-remote", "2.11", "0.00", "1.50", "2.33")
	tab.Fprint(w)
	return nil
}

// The microbenchmarks below move raw messages of the engine's default
// size; their time scales are small because no query compute has to be
// kept in proportion.
const (
	figure5Messages   = 150
	figure5TimeScale  = 4
	figure10TimeScale = 2
)

// figure5 runs the single-stream transport microbenchmark (§2.1.2) over
// the paper's tuning ladder: 150 transfers of one message between two
// servers, unidirectional and bidirectional, per-stream simulated GB/s.
func figure5(w io.Writer, _ Args) error {
	tab := &report.Table{
		Title: fmt.Sprintf("Figure 5: transport tuning (%d × %d KB, one stream)",
			figure5Messages, memory.DefaultMessageSize/1024),
		Header: []string{"variant", "unidirectional GB/s", "bidirectional GB/s"},
	}
	for _, v := range []struct {
		name  string
		sheet nic.Sheet
	}{
		{"TCP w/o offload", nic.TCP(nic.TCPConfig{Mode: nic.ModeDatagram})},
		{"default TCP", nic.TCP(nic.TCPConfig{Mode: nic.ModeDatagram, Offload: true})},
		{"TCP 64k MTU", nic.TCP(nic.TCPConfig{Mode: nic.ModeConnected})},
		{"TCP interrupts", nic.TCP(nic.TCPConfig{Mode: nic.ModeConnected, TunedInterrupts: true})},
		{"default RDMA", nic.RDMA()},
	} {
		uni, err := oneStream(v.sheet, false)
		if err != nil {
			return err
		}
		bidi, err := oneStream(v.sheet, true)
		if err != nil {
			return err
		}
		tab.Add(v.name, report.F2(uni), report.F2(bidi))
	}
	tab.Fprint(w)
	return nil
}

// oneStream runs one stream (or two opposing streams) under the given
// sheet and returns the per-stream payload throughput in simulated GB/s.
func oneStream(sheet nic.Sheet, bidi bool) (float64, error) {
	const messages, messageSize = figure5Messages, memory.DefaultMessageSize
	fab, err := fabric.New(fabric.Config{
		Ports:     2,
		Rate:      fabric.IB4xQDR,
		TimeScale: figure5TimeScale,
	})
	if err != nil {
		return 0, err
	}
	topo := numa.TwoSocket()
	pools := [2]*memory.Pool{
		memory.NewPool(topo, numa.AllocLocal, messageSize, nil),
		memory.NewPool(topo, numa.AllocLocal, messageSize, nil),
	}
	done := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var counts [2]int
	var mu sync.Mutex
	endpoints := make([]*nic.Endpoint, 2)
	for i := 0; i < 2; i++ {
		i := i
		onRecv := func(m *memory.Message) {
			m.Release()
			mu.Lock()
			counts[i]++
			c := counts[i]
			mu.Unlock()
			if c == messages {
				done[i] <- struct{}{}
			}
		}
		endpoints[i] = nic.New(fab, i, sheet, pools[i].Get0, onRecv, func(int, uint32) {})
	}
	fab.Start()
	defer func() {
		for _, ep := range endpoints {
			ep.Close()
		}
		fab.Stop()
	}()

	send := func(from int) {
		to := 1 - from
		for k := 0; k < messages; k++ {
			m := pools[from].Get0()
			m.Content = m.Content[:messageSize-memory.HeaderSize]
			endpoints[from].Send(to, m)
		}
	}
	start := time.Now()
	if bidi {
		go send(1)
	}
	go send(0)
	<-done[1]
	if bidi {
		<-done[0]
	}
	wall := time.Since(start)
	simSeconds := wall.Seconds() / figure5TimeScale
	perStream := float64(messages) * float64(messageSize) / simSeconds / 1e9
	return perStream, nil
}

// figure10b measures all-to-all throughput with and without round-robin
// network scheduling as the cluster grows (paper: +40% at 8 servers):
// 240 messages per server, per-server simulated GB/s.
func figure10b(w io.Writer, _ Args) error {
	tab := &report.Table{
		Title:  "Figure 10(b): all-to-all vs round-robin scheduling",
		Header: []string{"servers", "all-to-all GB/s", "round-robin GB/s", "improvement"},
	}
	modes := []bool{false, true} // unscheduled, scheduled
	for _, n := range []int{2, 4, 6, 8} {
		pools := newCellPools(n, memory.DefaultMessageSize)
		if err := pools.warm(240, modes...); err != nil {
			return err
		}
		// Average several trials, alternating the modes so both see the
		// same pool state: contention patterns vary run to run.
		const trials = 3
		var thr [2]float64
		for t := 0; t < trials; t++ {
			for i, sched := range modes {
				one, err := allToAll(pools, 240, figure10TimeScale, sched)
				if err != nil {
					return err
				}
				thr[i] += one / trials
			}
		}
		tab.Add(fmt.Sprintf("%d", n), report.F2(thr[0]), report.F2(thr[1]),
			fmt.Sprintf("%+.0f%%", (thr[1]/thr[0]-1)*100))
	}
	tab.Fprint(w)
	return nil
}

// figure10c sweeps the message size under scheduling on 4 servers moving
// 48 MB each: small messages cannot amortize the synchronization barriers.
// The paper finds that ≥512 KB hides them completely; on the simulated
// fabric the 512 KB and 2 MB cells still read below 64 and 256 KB.
func figure10c(w io.Writer, _ Args) error {
	const servers, totalBytes = 4, 48 << 20
	tab := &report.Table{
		Title:  fmt.Sprintf("Figure 10(c): throughput vs message size (%d servers, scheduled)", servers),
		Header: []string{"message size", "GB/s"},
	}
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10, 2 << 20} {
		pools, msgs := newCellPools(servers, size), max(totalBytes/size, 8)
		if err := pools.warm(msgs, true); err != nil {
			return err
		}
		// A single timed run spreads widely: average several, as
		// figure10b does.
		const trials = 3
		thr := 0.0
		for range trials {
			one, err := allToAll(pools, msgs, figure10TimeScale, true)
			if err != nil {
				return err
			}
			thr += one / trials
		}
		tab.Add(fmt.Sprintf("%dKB", size/1024), report.F2(thr))
	}
	tab.Fprint(w)
	return nil
}

// cellPools are one figure cell's message pools: per server, one its
// multiplexer posts receive buffers from and one its producer fills. A
// cell builds them once, warms them, and every timed run of the cell
// reuses them, so a timed run recycles buffers instead of clearing fresh
// ones.
type cellPools struct {
	recv, send []*memory.Pool
}

func newCellPools(servers, msgSize int) cellPools {
	c := cellPools{recv: make([]*memory.Pool, servers), send: make([]*memory.Pool, servers)}
	for i := range c.recv {
		c.recv[i] = memory.NewPool(numa.TwoSocket(), numa.AllocLocal, msgSize, nil)
		c.send[i] = memory.NewPool(numa.TwoSocket(), numa.AllocLocal, msgSize, nil)
	}
	return c
}

// warm runs the cell once per mode untimed, so the pools hold the buffers
// a timed run of either mode takes.
func (c cellPools) warm(msgsPer int, modes ...bool) error {
	for _, sched := range modes {
		if _, err := allToAll(c, msgsPer, figure10TimeScale, sched); err != nil {
			return err
		}
	}
	return nil
}

// check reports a buffer a run did not give back.
func (c cellPools) check() error {
	for _, pools := range [][]*memory.Pool{c.recv, c.send} {
		for i, p := range pools {
			if st := p.Stats(); st.Allocated+st.Recycled != st.Returned {
				return fmt.Errorf("all-to-all: server %d's pool lent %d buffers and got %d back",
					i, st.Allocated+st.Recycled, st.Returned)
			}
		}
	}
	return nil
}

// allToAll runs the raw shuffle microbenchmark through the real
// multiplexers, one server per pool of the cell: every server sends
// msgsPer messages filling its pool's buffers, spread round-robin over all
// other servers, and consumes its inbound stream. Returns the per-server
// payload throughput in simulated GB/s, or an error if a buffer did not
// come back.
func allToAll(pools cellPools, msgsPer int, timeScale float64, scheduling bool) (perServer float64, err error) {
	servers, msgSize := len(pools.recv), pools.recv[0].MessageSize()
	fab, err := fabric.New(fabric.Config{
		Ports:     servers,
		Rate:      fabric.IB4xQDR,
		TimeScale: timeScale,
	})
	if err != nil {
		return 0, err
	}
	topo := numa.TwoSocket()
	muxes := make([]*mux.Mux, servers)
	endpoints := make([]*nic.Endpoint, servers)
	recvs := make([]*mux.ExchangeRecv, servers)
	const exID = int32(7)
	for i := 0; i < servers; i++ {
		m, err := mux.New(mux.Config{
			Server:     i,
			Servers:    servers,
			Topology:   topo,
			Pool:       pools.recv[i],
			Scheduling: scheduling,
		})
		if err != nil {
			return 0, err
		}
		ep := nic.New(fab, i, nic.RDMA(), m.RecvAlloc, m.OnRecv, m.OnInline)
		m.SetTransport(ep)
		muxes[i] = m
		endpoints[i] = ep
		recvs[i] = m.OpenExchange(0, exID, servers)
	}
	fab.Start()
	for _, m := range muxes {
		m.Start()
	}
	defer func() {
		for i, m := range muxes {
			m.Close()
			endpoints[i].Close()
		}
		fab.Stop()
		if err == nil {
			err = pools.check()
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < servers; i++ {
		i := i
		pool := pools.send[i]
		wg.Add(1)
		go func() { // producer
			defer wg.Done()
			// Receivers assert strictly increasing per-sender sequence
			// numbers, so stamp one counter per destination.
			seq := make([]uint32, servers)
			for k := 0; k < msgsPer; k++ {
				dst := (i + 1 + k%(servers-1)) % servers
				m := pool.Get(0)
				m.Content = m.Content[:msgSize-memory.HeaderSize]
				m.ExchangeID = exID
				m.Sender = i
				m.Seq = seq[dst]
				seq[dst]++
				muxes[i].Send(dst, m)
			}
			for d := 0; d < servers; d++ {
				last := pool.Get(0)
				last.ExchangeID = exID
				last.Sender = i
				last.Last = true
				last.Seq = seq[d]
				muxes[i].Send(d, last)
			}
		}()
		wg.Add(1)
		go func() { // consumer
			defer wg.Done()
			for {
				msg := recvs[i].Recv(0)
				if msg == nil {
					return
				}
				msg.Release()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	simSeconds := wall.Seconds() / timeScale
	return float64(msgsPer) * float64(msgSize) / simSeconds / 1e9, nil
}
