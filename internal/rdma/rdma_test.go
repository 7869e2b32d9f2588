package rdma

import (
	"sync"
	"testing"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/nic"
	"hsqp/internal/numa"
)

func TestChannelSemantics(t *testing.T) {
	fab, err := fabric.New(fabric.Config{Ports: 2, Rate: fabric.IB4xQDR, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.TwoSocket()
	sendPool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)
	recvPool := memory.NewPool(topo, numa.AllocLocal, 4096, nil)

	var mu sync.Mutex
	var got []*memory.Message
	done := make(chan struct{}, 16)
	inlines := make(chan uint32, 16)

	ep0 := NewEndpoint(fab, 0, sendPool.Get0, func(m *memory.Message) { m.Release() }, func(int, uint32) {})
	ep1 := NewEndpoint(fab, 1, recvPool.Get0, func(m *memory.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		done <- struct{}{}
	}, func(src int, tag uint32) { inlines <- tag })
	fab.Start()
	ep0.Start()
	ep1.Start()
	defer func() {
		ep0.Close()
		ep1.Close()
		fab.Stop()
	}()

	m := sendPool.Get0()
	m.ExchangeID = 11
	m.Sender = 0
	m.Seq = 42
	m.Content = append(m.Content, []byte("zero copy")...)
	ep0.Send(1, m)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("received %d", len(got))
	}
	r := got[0]
	// The receiver's buffer is a POSTED buffer from its own pool, not the
	// sender's (channel semantics): the sender's buffer must have been
	// released back to the send pool.
	if r == m {
		t.Fatal("receiver got the sender's buffer; channel semantics violated")
	}
	if string(r.Content) != "zero copy" || r.ExchangeID != 11 || r.Seq != 42 {
		t.Fatalf("wire fields lost: %+v", r)
	}
	if sendPool.Stats().Returned != 1 {
		t.Fatal("send completion did not release the sender's buffer")
	}

	// Inline sends deliver tags without consuming buffers.
	ep0.SendInline(1, 7)
	if tag := <-inlines; tag != 7 {
		t.Fatalf("inline tag %d", tag)
	}
	st := ep0.Stats()
	if st.MsgsSent != 1 || st.InlineSent != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if rs := ep1.Stats(); rs.MsgsReceived != 1 || rs.CPUSeconds <= 0 {
		t.Fatalf("recv stats: %+v", rs)
	}
}

func TestRDMACPUFarBelowTCP(t *testing.T) {
	// §2 discussion: RDMA frees the CPU (4% vs 100–190%). Per 512 KB
	// message the RDMA endpoint charges only completion costs.
	perMsg := nic.CompletionCost.Seconds()
	tcpPerByte := 0.66e-9 // connected-mode receive path
	tcpPerMsg := 512 * 1024 * tcpPerByte
	if perMsg > tcpPerMsg/50 {
		t.Fatalf("RDMA CPU %.1fµs per message should be ≪ TCP %.1fµs", perMsg*1e6, tcpPerMsg*1e6)
	}
}
