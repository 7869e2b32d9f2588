package nic

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/numa"
)

// mesh is two endpoints under one sheet on a fast two-port fabric. Port 1
// logs every completion in order; recvAlloc blocks while the gate is held,
// which stalls port 1's delivery goroutine at its next data frame.
type mesh struct {
	fab        *fabric.Fabric
	send, recv *memory.Pool
	ep0, ep1   *Endpoint

	mu     sync.Mutex
	log    []string
	posted map[*memory.Message]bool
	got    chan *memory.Message
	tags   chan uint32
	gate   sync.RWMutex
}

func newMesh(t *testing.T, sheet Sheet) *mesh {
	t.Helper()
	fab, err := fabric.New(fabric.Config{Ports: 2, Rate: fabric.IB4xQDR, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.TwoSocket()
	ms := &mesh{
		fab:    fab,
		send:   memory.NewPool(topo, numa.AllocLocal, memory.DefaultMessageSize, nil),
		recv:   memory.NewPool(topo, numa.AllocLocal, memory.DefaultMessageSize, nil),
		log:    make([]string, 0, 8),
		posted: map[*memory.Message]bool{},
		got:    make(chan *memory.Message, 16),
		tags:   make(chan uint32, 16),
	}
	ms.ep0 = New(fab, 0, sheet, ms.send.Get0, func(m *memory.Message) { m.Release() }, func(int, uint32) {})
	ms.ep1 = New(fab, 1, sheet, func() *memory.Message {
		ms.gate.RLock()
		defer ms.gate.RUnlock()
		m := ms.recv.Get0()
		ms.mu.Lock()
		ms.posted[m] = true
		ms.mu.Unlock()
		return m
	}, func(m *memory.Message) {
		ms.note("data")
		ms.got <- m
	}, func(src int, tag uint32) {
		ms.note("inline")
		ms.tags <- tag
	})
	fab.Start()
	t.Cleanup(func() {
		ms.ep0.Close()
		ms.ep1.Close()
		fab.Stop()
	})
	return ms
}

// note logs a completion; the log keeps its first eight entries, so
// traffic after that allocates nothing.
func (ms *mesh) note(what string) {
	ms.mu.Lock()
	if len(ms.log) < cap(ms.log) {
		ms.log = append(ms.log, what)
	}
	ms.mu.Unlock()
}

// message returns a send buffer with every header field set and n content
// bytes.
func (ms *mesh) message(n int) *memory.Message {
	m := ms.send.Get0()
	m.QueryID, m.ExchangeID, m.Last, m.Sender, m.Seq, m.Part = 3, 11, true, 0, 42, 5
	for i := 0; i < n; i++ {
		m.Content = append(m.Content, byte(i))
	}
	return m
}

// within waits for one value from ch, failing the test instead of hanging
// when a broken endpoint never delivers it.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s within 5 s", what)
		var zero T
		return zero
	}
}

func cpuNanos(ep *Endpoint) int64 { return int64(math.Round(ep.Stats().CPUSeconds * 1e9)) }

// pin is one frame's charge under a sheet: content < 0 is an inline frame;
// segs 0 skips the segment check.
type pin struct {
	content, segs, wire int
	send, recv          time.Duration
}

// TestEndpointContract holds every sheet to the endpoint's contract: what
// arrives where, when the sender's buffer comes back, that frames complete
// one at a time in arrival order, and what each frame costs.
func TestEndpointContract(t *testing.T) {
	const big = memory.DefaultMessageSize - memory.HeaderSize
	gbe := TCP(TCPConfig{Mode: ModeEthernet, Offload: true})
	for _, tc := range []struct {
		name  string
		sheet Sheet
		pins  []pin
	}{
		{"rdma", RDMA(), []pin{
			{content: 1000, wire: 1000 + memory.HeaderSize, recv: CompletionCost},
			{content: big, wire: memory.DefaultMessageSize, recv: CompletionCost},
			{content: -1, wire: 16, recv: CompletionCost},
		}},
		{"tcp-datagram", TCP(TCPConfig{Mode: ModeDatagram}), []pin{
			{content: 64 << 10, segs: 33, wire: 67471, send: 99466, recv: 181873},
		}},
		{"tcp-datagram-offload", TCP(TCPConfig{Mode: ModeDatagram, Offload: true}), nil},
		{"tcp-connected", TCP(TCPConfig{Mode: ModeConnected}), nil},
		{"tcp-connected-tuned", TCP(TCPConfig{Mode: ModeConnected, TunedInterrupts: true}), []pin{
			{content: big, segs: 9, wire: 524810, send: 260228, recv: 279128},
			{content: -1, wire: 64, send: 4200, recv: 4200},
		}},
		{"tcp-gbe", gbe, []pin{
			{content: 1000, segs: 1, wire: 1079, send: 647, recv: 1510},
			{content: big, segs: 350, wire: 544588, send: 265253, recv: 643681},
			{content: -1, wire: 64, send: 850, recv: 850},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := newMesh(t, tc.sheet)

			// Header and payload land in a posted buffer of the receiver's
			// pool; the sender's buffer comes back exactly once, inside Send
			// for sockets and at the completion for verbs.
			ms.gate.Lock()
			m := ms.message(7)
			ms.ep0.Send(1, m)
			wantInSend := uint64(0)
			if tc.sheet.socket {
				wantInSend = 1
			}
			if r := ms.send.Stats().Returned; r != wantInSend {
				t.Fatalf("sender's buffer returned %d times inside Send, want %d", r, wantInSend)
			}
			ms.gate.Unlock()
			r := within(t, ms.got, "data frame")
			ms.mu.Lock()
			posted := ms.posted[r]
			ms.mu.Unlock()
			if r == m || !posted {
				t.Fatal("frame did not land in a posted receive buffer")
			}
			if r.QueryID != 3 || r.ExchangeID != 11 || !r.Last || r.Sender != 0 || r.Seq != 42 || r.Part != 5 ||
				string(r.Content) != string([]byte{0, 1, 2, 3, 4, 5, 6}) {
				t.Fatalf("wire fields lost: %+v", r)
			}
			r.Release()
			if got := ms.send.Stats().Returned; got != 1 {
				t.Fatalf("sender's buffer returned %d times, want 1", got)
			}

			// Inline after data: every sheet completes in arrival order, on
			// the delivery goroutine. While the first completion is held,
			// the frames behind it wait on the fabric's delay line.
			ms.mu.Lock()
			ms.log = ms.log[:0]
			ms.mu.Unlock()
			delivered := ms.fab.MessagesDelivered()
			ms.gate.Lock()
			ms.ep0.Send(1, ms.message(1))
			ms.ep0.Send(1, ms.message(1))
			ms.ep0.SendInline(1, 9)
			ms.delivered(t, delivered+1)
			time.Sleep(20 * time.Millisecond) // ample for the 2 frames behind to come due
			if got := ms.fab.MessagesDelivered(); got != delivered+1 {
				t.Fatalf("%d frames delivered behind a held completion, want 0", got-delivered-1)
			}
			ms.gate.Unlock()
			within(t, ms.got, "data frame").Release()
			within(t, ms.got, "data frame").Release()
			if tag := within(t, ms.tags, "inline frame"); tag != 9 {
				t.Fatalf("inline tag %d, want 9", tag)
			}
			want := []string{"data", "data", "inline"}
			ms.mu.Lock()
			log := append([]string(nil), ms.log...)
			ms.mu.Unlock()
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("completion order %v, want %v", log, want)
			}

			// Per-frame charges, segments and wire bytes.
			for _, p := range tc.pins {
				send0, recv0 := cpuNanos(ms.ep0), cpuNanos(ms.ep1)
				segs0, wire0 := ms.ep0.Stats().Segments, ms.fab.BytesDelivered()
				if p.content < 0 {
					ms.ep0.SendInline(1, 1)
					within(t, ms.tags, "inline frame")
				} else {
					ms.ep0.Send(1, ms.message(p.content))
					within(t, ms.got, "data frame").Release()
				}
				if got := ms.fab.BytesDelivered() - wire0; got != uint64(p.wire) {
					t.Errorf("%+v: %d wire bytes", p, got)
				}
				if got := ms.ep0.Stats().Segments - segs0; p.segs > 0 && got != uint64(p.segs) {
					t.Errorf("%+v: %d segments", p, got)
				}
				if got := time.Duration(cpuNanos(ms.ep0) - send0); got != p.send {
					t.Errorf("%+v: send CPU %v", p, got)
				}
				if got := time.Duration(cpuNanos(ms.ep1) - recv0); got != p.recv {
					t.Errorf("%+v: receive CPU %v", p, got)
				}
			}
		})
	}
}

// delivered waits until the fabric has delivered want frames in all.
func (ms *mesh) delivered(t *testing.T, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ms.fab.MessagesDelivered() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("fabric delivered %d frames, want %d", ms.fab.MessagesDelivered(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// returned waits until the sender's pool has had want buffers back.
func (ms *mesh) returned(t *testing.T, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ms.send.Stats().Returned != want; {
		if time.Now().After(deadline) {
			t.Fatalf("sender's pool got %d buffers back, want %d", ms.send.Stats().Returned, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedEndpointReleasesFrames: a verbs frame that reaches a closed
// endpoint, or still sits on the fabric's delay line when it closes, will
// never complete; it is dropped when it is delivered, and the sender's
// buffer goes back to its pool all the same.
func TestClosedEndpointReleasesFrames(t *testing.T) {
	ms := newMesh(t, RDMA())
	ms.ep1.Close()
	ms.ep0.Send(1, ms.message(7))
	ms.returned(t, 1)

	ms = newMesh(t, RDMA())
	ms.gate.Lock() // port 1's delivery goroutine stalls on the first frame
	for i := 0; i < 4; i++ {
		ms.ep0.Send(1, ms.message(7))
	}
	ms.delivered(t, 1) // the other 3 wait on the delay line
	ms.ep1.Close()
	ms.gate.Unlock()
	within(t, ms.got, "the frame in completion").Release()
	ms.returned(t, 4)
	if n := ms.ep1.Stats().MsgsReceived; n != 1 {
		t.Fatalf("a closed endpoint completed %d frames, want only the 1 already in completion", n)
	}
}

func TestDeliveryAndContent(t *testing.T) {
	ms := newMesh(t, TCP(TCPConfig{Mode: ModeConnected}))
	for i := 0; i < 5; i++ {
		m := ms.send.Get0()
		m.Content = append(m.Content, 'm', byte('0'+i))
		ms.ep0.Send(1, m)
	}
	for i := 0; i < 5; i++ {
		r := <-ms.got
		if s := string(r.Content); s != "m"+string(byte('0'+i)) {
			t.Fatalf("message %d corrupted: %q", i, s)
		}
		r.Release()
	}
}

func TestCPUAccounting(t *testing.T) {
	ms := newMesh(t, TCP(TCPConfig{Mode: ModeDatagram}))
	for i := 0; i < 10; i++ {
		ms.ep0.Send(1, ms.message(2))
	}
	for i := 0; i < 10; i++ {
		(<-ms.got).Release()
	}
	s0, s1 := ms.ep0.Stats(), ms.ep1.Stats()
	if s0.CPUSeconds <= 0 || s1.CPUSeconds <= 0 {
		t.Fatalf("no CPU charged: send=%v recv=%v", s0.CPUSeconds, s1.CPUSeconds)
	}
	if s0.Segments == 0 || s0.MsgsSent != 10 || s1.MsgsReceived != 10 {
		t.Fatalf("counters: %+v %+v", s0, s1)
	}
}

func TestCostModelOrdering(t *testing.T) {
	// The Figure 5 ladder, as per-byte receiver cost: datagram w/o offload
	// > datagram w/ offload > connected > connected+tuned interrupts.
	const n = 512 * 1024
	ladder := []Sheet{
		TCP(TCPConfig{Mode: ModeDatagram}),
		TCP(TCPConfig{Mode: ModeDatagram, Offload: true}),
		TCP(TCPConfig{Mode: ModeConnected}),
		TCP(TCPConfig{Mode: ModeConnected, TunedInterrupts: true}),
	}
	var prev time.Duration
	for i, s := range ladder {
		cur := dataCost(s.segments(n), n, s.recvSeg, s.recvPasses)
		if i > 0 && cur >= prev {
			t.Fatalf("ladder step %d not faster: %v vs %v", i, cur, prev)
		}
		prev = cur
	}
	// Connected mode never offloads (RFC 4755).
	if !reflect.DeepEqual(TCP(TCPConfig{Mode: ModeConnected, Offload: true}), TCP(TCPConfig{Mode: ModeConnected})) {
		t.Fatal("connected mode must not offload")
	}
}

func TestMTUs(t *testing.T) {
	for mode, mtu := range map[Mode]int{ModeEthernet: 1500, ModeDatagram: 2044, ModeConnected: 65520} {
		if got := TCP(TCPConfig{Mode: mode}).mtu; got != mtu {
			t.Fatalf("mode %d: MTU %d, want %d", mode, got, mtu)
		}
	}
	connected, gbe, rdma := TCP(TCPConfig{Mode: ModeConnected}), TCP(TCPConfig{}), RDMA()
	if connected.segments(65520) != 1 || connected.segments(65521) != 2 || gbe.segments(0) != 1 {
		t.Fatal("segment math wrong")
	}
	if rdma.segments(memory.DefaultMessageSize) != 1 {
		t.Fatal("RDMA segments a message")
	}
}
