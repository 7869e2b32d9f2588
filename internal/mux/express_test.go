package mux

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"hsqp/internal/memory"
	"hsqp/internal/numa"
)

// gatedTransport records every message handed to it, in order. A message
// larger than its BDP parks inside Send until the gate opens, so the test
// holds one bulk message in flight for as long as it likes.
type gatedTransport struct {
	bdp  int
	gate chan struct{}

	mu   sync.Mutex
	sent []string // Content of each message, on entry to Send
	cond *sync.Cond
}

func newGatedTransport(bdp int) *gatedTransport {
	tr := &gatedTransport{bdp: bdp, gate: make(chan struct{})}
	tr.cond = sync.NewCond(&tr.mu)
	return tr
}

func (tr *gatedTransport) SendInline(int, uint32) {}
func (tr *gatedTransport) BDP() int               { return tr.bdp }

func (tr *gatedTransport) Send(_ int, m *memory.Message) {
	tr.mu.Lock()
	tr.sent = append(tr.sent, string(m.Content))
	tr.cond.Broadcast()
	tr.mu.Unlock()
	if m.WireSize() > tr.bdp {
		<-tr.gate
	}
	m.Release()
}

// waitSent blocks until n messages have entered Send and returns them.
func (tr *gatedTransport) waitSent(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.AfterFunc(5*time.Second, func() {
		tr.mu.Lock()
		tr.cond.Broadcast()
		tr.mu.Unlock()
	})
	defer deadline.Stop()
	start := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for len(tr.sent) < n {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("transport saw %v, want %d messages", tr.sent, n)
		}
		tr.cond.Wait()
	}
	return append([]string(nil), tr.sent...)
}

func (tr *gatedTransport) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.sent)
}

// TestExpressKeepsStreamOrder pins the express rule: a message at most the
// link's bandwidth-delay product skips the send loop only while its own
// stream has nothing queued or in flight to that destination. A sub-BDP
// message and the Last marker of a stream whose bulk message is still in
// flight queue behind it; another stream's sub-BDP message goes ahead.
// A frozen multiplexer sends nothing express, and a stopped one releases
// what it is given.
func TestExpressKeepsStreamOrder(t *testing.T) {
	const bdp = 1024
	tr := newGatedTransport(bdp)
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 4096, nil)
	m, err := New(Config{Server: 0, Servers: 2, Topology: numa.TwoSocket(), Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTransport(tr)
	m.Start()
	openGate := sync.OnceFunc(func() { close(tr.gate) })
	defer m.Close()
	defer openGate()

	send := func(exID int32, content string, size int, last bool) {
		msg := pool.Get(0)
		msg.QueryID, msg.ExchangeID, msg.Sender, msg.Last = 1, exID, 0, last
		msg.Content = append(msg.Content, content...)
		for len(msg.Content) < size {
			msg.Content = append(msg.Content, 0)
		}
		m.Send(1, msg)
	}
	label := func(s string) string { // strip the padding
		for i := 0; i < len(s); i++ {
			if s[i] == 0 {
				return s[:i]
			}
		}
		return s
	}
	labels := func(sent []string) []string {
		out := make([]string, len(sent))
		for i, s := range sent {
			out[i] = label(s)
		}
		return out
	}

	send(1, "bulk", 2*bdp, false) // queued: larger than the BDP, parks in the transport
	tr.waitSent(t, 1)
	send(1, "small", 16, false) // its stream has the bulk message in flight
	send(1, "last", 0, true)
	send(2, "other", 16, false) // another stream: express
	if got := labels(tr.waitSent(t, 2)); !reflect.DeepEqual(got, []string{"bulk", "other"}) {
		t.Fatalf("with the bulk message in flight the transport saw %v, want [bulk other]", got)
	}
	if n := m.Stats().ExpressMsgs; n != 1 {
		t.Fatalf("ExpressMsgs = %d, want 1", n)
	}
	openGate()
	want := []string{"bulk", "other", "small", "last"}
	if got := labels(tr.waitSent(t, 4)); !reflect.DeepEqual(got, want) {
		t.Fatalf("transport order %v, want %v", got, want)
	}

	// Nothing is queued any more, so the stream is express again.
	send(1, "again", 16, false)
	if got := labels(tr.waitSent(t, 5)); got[4] != "again" || m.Stats().ExpressMsgs != 2 {
		t.Fatalf("drained stream did not go express: %v, %+v", got, m.Stats())
	}

	m.Freeze(true)
	send(3, "frozen", 16, false)
	time.Sleep(20 * time.Millisecond)
	if n := tr.count(); n != 5 {
		t.Fatalf("a frozen multiplexer sent %d messages", n-5)
	}
	m.Freeze(false)
	if got := labels(tr.waitSent(t, 6)); got[5] != "frozen" {
		t.Fatalf("thawed multiplexer sent %v", got)
	}
	if n := m.Stats().ExpressMsgs; n != 2 {
		t.Fatalf("ExpressMsgs = %d after the freeze, want 2", n)
	}

	m.Close()
	before := pool.Stats().Returned
	send(4, "closed", 16, false)
	if got := pool.Stats().Returned - before; got != 1 || tr.count() != 6 {
		t.Fatalf("stopped multiplexer: %d buffers released, %d sent; want the message released, not sent",
			got, tr.count()-6)
	}
	st := pool.Stats()
	if st.Allocated+st.Recycled != st.Returned {
		t.Fatalf("buffers leaked: %+v", st)
	}
}

// TestCloseReleasesQueued: what the FIFOs hold when Close runs is
// released once the network loop has exited, once per reference, so a
// broadcast's retains balance; a Send waiting for room in a full FIFO
// returns on Close with its message released.
func TestCloseReleasesQueued(t *testing.T) {
	const bdp = 1024
	tr := newGatedTransport(bdp)
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 4096, nil)
	m, err := New(Config{Server: 0, Servers: 3, Topology: numa.TwoSocket(), Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTransport(tr)
	m.Start()
	bulk := func(exID int32) *memory.Message {
		msg := pool.Get(0)
		msg.QueryID, msg.ExchangeID = 1, exID
		msg.Content = msg.Content[:2*bdp]
		return msg
	}

	m.Send(1, bulk(1)) // parks in the transport, holding the network loop
	tr.waitSent(t, 1)
	b := bulk(2) // a broadcast to servers 1 and 2
	b.Retain(1)
	m.Send(1, b)
	m.Send(2, b)
	for range sendQueue - 2 {
		m.Send(1, bulk(1))
	}
	stalled := make(chan struct{})
	go func() {
		m.Send(1, bulk(1)) // FIFO 1 is full
		close(stalled)
	}()
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("a Send waiting for room did not return on Close")
	}
	close(tr.gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if st := pool.Stats(); st.Allocated+st.Recycled != st.Returned {
		t.Fatalf("%d buffers taken, %d returned", st.Allocated+st.Recycled, st.Returned)
	}
	if n := tr.count(); n != 1 {
		t.Fatalf("the transport saw %d messages, want the one in flight", n)
	}
}
