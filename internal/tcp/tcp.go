// Package tcp implements a socket-like transport over the simulated fabric,
// modeling the TCP/IP costs the paper measures in §2.1:
//
//   - data touching: every payload byte is *actually copied* from the
//     application buffer into a socket buffer on send and from the socket
//     buffer into an application buffer on receive, and a checksum is
//     computed over it (unless segmentation offload is enabled);
//   - per-segment cost: kernel/protocol processing and interrupt handling
//     are charged per MTU-sized segment, so a 2,044-byte datagram-mode MTU
//     costs ~32× more per message than the 65,520-byte connected mode;
//   - CPU load: all of the above burns CPU on the *receiving server's*
//     network goroutine, which competes with query-processing workers —
//     the paper's "the bottleneck of TCP remains the CPU load of the
//     receiver" (§2.1.2);
//   - NUIOA: if the network thread is not pinned to the NIC-local socket,
//     every byte pays extra memory-bus trips (§2.1.1), modeled as an
//     additional per-byte charge.
//
// The same implementation serves TCP over Gigabit Ethernet and IPoIB: only
// the fabric's data rate and the MTU/offload configuration differ.
package tcp

import (
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/spin"
)

// Mode selects the IPoIB transport mode (§2.1.2) or plain Ethernet.
type Mode int

const (
	// ModeEthernet is classic TCP over (Gigabit) Ethernet: 1500-byte MTU,
	// segmentation offload available.
	ModeEthernet Mode = iota
	// ModeDatagram is IPoIB datagram mode: 2,044-byte MTU, TCP offloading
	// supported.
	ModeDatagram
	// ModeConnected is IPoIB connected mode: 65,520-byte MTU, no offload —
	// the paper's recommended configuration for analytical workloads.
	ModeConnected
)

func (m Mode) String() string {
	switch m {
	case ModeEthernet:
		return "ethernet"
	case ModeDatagram:
		return "ipoib-datagram"
	case ModeConnected:
		return "ipoib-connected"
	default:
		return "tcp-mode?"
	}
}

// MTU returns the maximum transmission unit of the mode.
func (m Mode) MTU() int {
	switch m {
	case ModeEthernet:
		return 1500
	case ModeDatagram:
		return 2044
	case ModeConnected:
		return 65520
	default:
		return 1500
	}
}

// Cost model constants, expressed in *simulated* time and converted to
// wall time with the fabric's TimeScale. Calibrated so the single-stream
// throughput ladder of Figure 5 lands near the paper's measurements
// (0.37 / 0.93 / 1.51 / 2.17 GB/s for the four TCP variants):
//
//	variant                  per-byte (recv)            per-segment  → GB/s
//	datagram, no offload     copy+cksum+irq = 0.66 ns   4.2 µs/2 KB    ~0.37
//	datagram, offload        0.66 ns                    0.85 µs/2 KB   ~0.93
//	connected (64 KB MTU)    0.66 ns                    0.85 µs/64 KB  ~1.51
//	connected, irq pinned    0.46 ns                    0.85 µs/64 KB  ~2.17
const (
	// PerSegmentCost is kernel + protocol processing per segment without
	// offload (per-packet interrupts, header processing, no coalescing).
	PerSegmentCost = 4200 * time.Nanosecond
	// PerSegmentCostOffload is the reduced per-segment cost with NIC
	// segmentation offload / interrupt coalescing.
	PerSegmentCostOffload = 850 * time.Nanosecond
	// CopyRate is the rate of one memory copy pass (bytes/simulated-second).
	CopyRate = 4.5e9
	// ChecksumRate is the rate of the checksum pass over the payload.
	ChecksumRate = 4.2e9
	// IRQPathRate charges the soft-IRQ processing share when the interrupt
	// handler runs on the same core as the network thread (§2.1.2: pinning
	// the network thread to a different core gains a further 44%).
	IRQPathRate = 5e9
	// NUIOAPenaltyRate charges extra memory-bus trips when the network
	// thread runs on the NIC-remote socket (§2.1.1: ~2× reads on sender,
	// ~1.5×/2.33× on receiver).
	NUIOAPenaltyRate = 6e9
)

// Config configures a TCP endpoint.
type Config struct {
	Mode Mode
	// Offload enables NIC segmentation/checksum offload (unavailable in
	// IPoIB connected mode; the large MTU more than compensates, §2.1.2).
	Offload bool
	// NICLocal reports whether the network goroutine is pinned to the
	// NUMA socket the NIC hangs off (NUIOA, §2.1.1).
	NICLocal bool
	// TunedInterrupts pins the network thread to a different core than the
	// interrupt handler (§2.1.2), removing the soft-IRQ share from the
	// receive path at the price of occupying a second core.
	TunedInterrupts bool
}

// socketBuffer is the receive socket buffer size in bytes (backlog before
// backpressure).
const socketBuffer = 4 << 20

func (c Config) withDefaults() Config {
	if c.Mode == ModeConnected {
		c.Offload = false // not supported in connected mode (RFC 4755)
	}
	return c
}

// Stats reports endpoint activity.
type Stats struct {
	BytesSent     uint64
	BytesReceived uint64
	MsgsSent      uint64
	MsgsReceived  uint64
	InlineSent    uint64
	Segments      uint64
	CPUSeconds    float64 // modeled CPU burned by the TCP stack
}

type inlinePayload struct {
	src int
	tag uint32
}

// segment models one wire-level TCP segment batch carrying (part of) a
// message. To keep fabric message counts proportional to real packet
// counts without drowning the simulator, a message is sent as one fabric
// message but *accounted* as ceil(size/MTU) segments.
type wirePayload struct {
	header   memory.Message // wire fields only; Content points at sockBuf
	sockBuf  []byte
	segments int
	owner    *Endpoint // recycles sockBuf after the receive copy
}

// Endpoint is one server's TCP port.
type Endpoint struct {
	fab  *fabric.Fabric
	port int
	cfg  Config

	recvAlloc func() *memory.Message
	onRecv    func(*memory.Message)
	onInline  func(src int, tag uint32)

	scale   float64
	recvQ   chan *fabric.Message // socket buffer: decouples wire from stack
	stopCh  chan struct{}
	stopped atomic.Bool
	bufPool sync.Pool // recycles socket buffers ([]byte)

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64
	msgsSent  atomic.Uint64
	msgsRecv  atomic.Uint64
	inlines   atomic.Uint64
	segments  atomic.Uint64
	cpuNanos  atomic.Int64
}

// NewEndpoint wires a TCP endpoint to fabric port `port`. See
// rdma.NewEndpoint for the callback contract.
func NewEndpoint(fab *fabric.Fabric, port int, cfg Config,
	recvAlloc func() *memory.Message,
	onRecv func(*memory.Message),
	onInline func(src int, tag uint32)) *Endpoint {

	c := cfg.withDefaults()
	ep := &Endpoint{
		fab:       fab,
		port:      port,
		cfg:       c,
		recvAlloc: recvAlloc,
		onRecv:    onRecv,
		onInline:  onInline,
		scale:     fab.Config().TimeScale,
		recvQ:     make(chan *fabric.Message, socketBuffer/(64*1024)),
		stopCh:    make(chan struct{}),
	}
	fab.RegisterSink(port, ep.sink)
	return ep
}

// Start launches the receiving network goroutine (the "network thread" of
// §2.1.2, which together with the interrupt handler accounts for the
// 100–190% receiver CPU utilization the paper measures).
func (ep *Endpoint) Start() {
	go ep.recvLoop()
}

// Close stops the receive goroutine.
func (ep *Endpoint) Close() {
	if ep.stopped.CompareAndSwap(false, true) {
		close(ep.stopCh)
	}
}

// Send transmits m to dst through the socket interface. Unlike RDMA, the
// payload is copied into a socket buffer and checksummed by the *calling
// goroutine* — this is the send-side CPU cost of Figure 4/5. The message
// is released as soon as the copy is done, like a socket write returning.
func (ep *Endpoint) Send(dst int, m *memory.Message) {
	content := m.Content
	size := m.WireSize()
	segs := segmentsFor(size, ep.cfg.Mode.MTU())

	// Data touching: copy into the socket buffer; checksum unless offloaded.
	sockBuf := ep.getBuf(len(content))
	copy(sockBuf, content)
	var cost time.Duration
	cost += bytesCost(len(content), CopyRate)
	if !ep.cfg.Offload {
		cost += bytesCost(len(content), ChecksumRate)
	}
	cost += perSegmentCost(segs, ep.cfg.Offload) / 2 // transmit path is cheaper
	if !ep.cfg.NICLocal {
		cost += bytesCost(len(content), NUIOAPenaltyRate)
	}
	ep.chargeCPU(cost)

	pl := &wirePayload{
		owner: ep,
		header: memory.Message{
			QueryID:    m.QueryID,
			ExchangeID: m.ExchangeID,
			Last:       m.Last,
			Sender:     m.Sender,
			Seq:        m.Seq,
			Part:       m.Part,
		},
		sockBuf:  sockBuf,
		segments: segs,
	}
	m.Release() // socket write returned; application buffer reusable

	ep.bytesSent.Add(uint64(size))
	ep.msgsSent.Add(1)
	ep.segments.Add(uint64(segs))
	// TCP per-segment headers inflate the wire size slightly.
	wireSize := size + segs*58
	ep.fab.Send(&fabric.Message{Src: ep.port, Dst: dst, Size: wireSize, Payload: pl})
}

// SendInline sends a small latency-critical message. Over TCP this is a
// minimal segment; it still pays per-segment cost.
func (ep *Endpoint) SendInline(dst int, tag uint32) {
	ep.inlines.Add(1)
	ep.chargeCPU(perSegmentCost(1, ep.cfg.Offload))
	ep.fab.Send(&fabric.Message{
		Src:     ep.port,
		Dst:     dst,
		Size:    64,
		Payload: inlinePayload{src: ep.port, tag: tag},
		Inline:  true,
	})
}

// sink runs on the fabric goroutine: it models the NIC DMA into the socket
// buffer and the interrupt request. Heavy protocol work happens on the
// endpoint's own network goroutine (recvLoop).
func (ep *Endpoint) sink(fm *fabric.Message) {
	select {
	case ep.recvQ <- fm:
	case <-ep.stopCh:
	}
}

func (ep *Endpoint) recvLoop() {
	for {
		select {
		case fm := <-ep.recvQ:
			ep.handle(fm)
		case <-ep.stopCh:
			return
		}
	}
}

func (ep *Endpoint) handle(fm *fabric.Message) {
	switch pl := fm.Payload.(type) {
	case inlinePayload:
		ep.chargeCPU(perSegmentCost(1, ep.cfg.Offload))
		ep.onInline(pl.src, pl.tag)
	case *wirePayload:
		// Interrupt handling, protocol processing, checksum verification,
		// and the copy from socket buffer to application buffer: the
		// receiver-side CPU cost that makes TCP the bottleneck (§2.1.2).
		var cost time.Duration
		cost += perSegmentCost(pl.segments, ep.cfg.Offload)
		cost += bytesCost(len(pl.sockBuf), ChecksumRate) // receive checksum is never offloaded here
		cost += bytesCost(len(pl.sockBuf), CopyRate)
		if !ep.cfg.TunedInterrupts {
			cost += bytesCost(len(pl.sockBuf), IRQPathRate)
		}
		if !ep.cfg.NICLocal {
			cost += bytesCost(len(pl.sockBuf), NUIOAPenaltyRate)
		}
		ep.chargeCPU(cost)

		dst := ep.recvAlloc()
		dst.QueryID = pl.header.QueryID
		dst.ExchangeID = pl.header.ExchangeID
		dst.Last = pl.header.Last
		dst.Sender = pl.header.Sender
		dst.Seq = pl.header.Seq
		dst.Part = pl.header.Part
		dst.Content = append(dst.Content[:0], pl.sockBuf...)
		pl.owner.putBuf(pl.sockBuf)

		ep.bytesRecv.Add(uint64(fm.Size))
		ep.msgsRecv.Add(1)
		ep.onRecv(dst)
	default:
		panic("tcp: unexpected payload type on fabric")
	}
}

func (ep *Endpoint) chargeCPU(d time.Duration) {
	ep.cpuNanos.Add(int64(d))
	spin.Burn(time.Duration(float64(d) * ep.scale))
}

// Stats returns a snapshot of endpoint counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		BytesSent:     ep.bytesSent.Load(),
		BytesReceived: ep.bytesRecv.Load(),
		MsgsSent:      ep.msgsSent.Load(),
		MsgsReceived:  ep.msgsRecv.Load(),
		InlineSent:    ep.inlines.Load(),
		Segments:      ep.segments.Load(),
		CPUSeconds:    float64(ep.cpuNanos.Load()) / 1e9,
	}
}

// getBuf returns a socket buffer of length n, reusing returned buffers.
// Socket buffers are kernel-owned and recycled in real stacks too; without
// reuse, allocator and GC pressure would dwarf the modeled costs.
func (ep *Endpoint) getBuf(n int) []byte {
	if v := ep.bufPool.Get(); v != nil {
		b := v.([]byte)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (ep *Endpoint) putBuf(b []byte) {
	ep.bufPool.Put(b[:cap(b)]) //nolint:staticcheck // []byte in any is fine here
}

func segmentsFor(size, mtu int) int {
	if size <= 0 {
		return 1
	}
	return (size + mtu - 1) / mtu
}

func perSegmentCost(segs int, offload bool) time.Duration {
	c := PerSegmentCost
	if offload {
		c = PerSegmentCostOffload
	}
	return time.Duration(segs) * c
}

func bytesCost(n int, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}
