// Package nic simulates one server's network adapter on the fabric. RDMA
// and TCP are the same endpoint under two cost sheets: the paper's case
// against TCP (§2.1) is what the stack costs, and RDMA (§2.2) is the same
// wire without those costs.
//
// A TCP sheet (§2.1) charges:
//
//   - data touching: the payload is really copied into a socket buffer on
//     send and out of it on receive, and checksummed unless the NIC
//     offloads it;
//   - per-segment work: protocol processing and interrupts per MTU-sized
//     segment, so IPoIB datagram mode's 2,044-byte MTU costs ~32× more per
//     message than connected mode's 65,520 bytes;
//   - receiver CPU: the receive charge burns on the endpoint's own
//     goroutine, which competes with the query workers — "the bottleneck
//     of TCP remains the CPU load of the receiver" (§2.1.2).
//
// The RDMA sheet (§2.2) charges none of that:
//
//   - channel semantics (§2.2.3): the receiver posts buffers and a frame
//     lands in the next one — no memory-key exchange;
//   - zero copy (§2.2.2): the fabric reads the sender's buffer in place;
//     the only copy is the adapter's DMA into the posted buffer, done on
//     the endpoint's goroutine, not by an application core. The sender's
//     buffer is released by that completion;
//   - event-based completions (§2.2.4): a completion costs CompletionCost,
//     the paper's 4 % CPU observation.
//
// Memory-region registration is charged by memory.NewPool when a buffer is
// first allocated, not here.
package nic

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/spin"
)

// Mode selects the link layer of a TCP sheet (§2.1.2).
type Mode int

const (
	// ModeEthernet is TCP over (Gigabit) Ethernet: 1,500-byte MTU,
	// segmentation offload available.
	ModeEthernet Mode = iota
	// ModeDatagram is IPoIB datagram mode: 2,044-byte MTU, offload
	// available.
	ModeDatagram
	// ModeConnected is IPoIB connected mode: 65,520-byte MTU and no offload
	// (RFC 4755) — the paper's choice for analytical workloads.
	ModeConnected
)

// TCPConfig selects one rung of the paper's TCP tuning ladder.
type TCPConfig struct {
	Mode Mode
	// Offload enables NIC segmentation/checksum offload. Connected mode
	// ignores it; its large MTU more than compensates (§2.1.2).
	Offload bool
	// TunedInterrupts pins the network thread to a different core than the
	// interrupt handler (§2.1.2), removing the soft-IRQ share from the
	// receive path at the price of occupying a second core.
	TunedInterrupts bool
}

// Costs in simulated time, converted to wall time with the fabric's
// TimeScale. The TCP constants are calibrated so the single-stream ladder
// of Figure 5 lands near the paper's 0.37 / 0.93 / 1.51 / 2.17 GB/s:
//
//	variant                  per-byte (recv)            per-segment  → GB/s
//	datagram, no offload     copy+cksum+irq = 0.66 ns   4.2 µs/2 KB    ~0.37
//	datagram, offload        0.66 ns                    0.85 µs/2 KB   ~0.93
//	connected (64 KB MTU)    0.66 ns                    0.85 µs/64 KB  ~1.51
//	connected, irq pinned    0.46 ns                    0.85 µs/64 KB  ~2.17
const (
	// CompletionCost is the CPU of one event-based RDMA completion.
	CompletionCost = 300 * time.Nanosecond
	// segCost is kernel + protocol work per TCP segment without offload
	// (per-packet interrupts, header processing, no coalescing);
	// segCostOffload is the same with segmentation offload and interrupt
	// coalescing.
	segCost        = 4200 * time.Nanosecond
	segCostOffload = 850 * time.Nanosecond
	// Per-byte passes over the payload, in bytes per simulated second: one
	// memory copy, one checksum, and the soft-IRQ share when the interrupt
	// handler shares the network thread's core.
	copyRate     = 4.5e9
	checksumRate = 4.2e9
	irqPathRate  = 5e9
	// tcpHeader is the wire overhead of one TCP/IP segment.
	tcpHeader = 58
)

// Sheet is a transport's cost sheet: what the adapter charges per frame,
// in simulated time, and the one behaviour that sets sockets apart from
// verbs. Build one with RDMA or TCP.
type Sheet struct {
	// socket: Send copies the payload into a socket buffer and releases the
	// message before it returns, and inline frames queue behind data.
	// Otherwise (verbs) the fabric reads the sender's buffer in place, the
	// receiver's completion releases it, and an inline frame completes on
	// arrival, on the fabric's goroutine.
	socket     bool
	mtu        int // wire bytes per segment
	segHeader  int // wire bytes added per segment
	inlineSize int // wire bytes of an inline frame
	queue      int // frames buffered ahead of the completion goroutine

	sendSeg, recvSeg       time.Duration // protocol work per segment
	sendInline, recvInline time.Duration // per inline frame
	sendPasses, recvPasses []float64     // per-byte passes, bytes per simulated second
}

// RDMA is the verbs sheet. A message is one work request, never segmented,
// and its one receive charge is the completion.
func RDMA() Sheet {
	return Sheet{
		mtu:        math.MaxInt,
		inlineSize: 16, // a minimal work request
		queue:      32,
		recvSeg:    CompletionCost,
		recvInline: CompletionCost,
	}
}

// TCP is the socket sheet of one tuning rung; TCP over GbE and over IPoIB
// differ only in the rung and the fabric's rate.
func TCP(cfg TCPConfig) Sheet {
	mtu := 1500
	switch cfg.Mode {
	case ModeDatagram:
		mtu = 2044
	case ModeConnected:
		mtu = 65520
	}
	offload := cfg.Offload && cfg.Mode != ModeConnected
	seg := segCost
	if offload {
		seg = segCostOffload
	}
	s := Sheet{
		socket:     true,
		mtu:        mtu,
		segHeader:  tcpHeader,
		inlineSize: 64,      // a minimal segment
		queue:      64,      // a 4 MB socket buffer of 64 KB frames
		sendSeg:    seg / 2, // the transmit path is cheaper
		recvSeg:    seg,
		sendInline: seg,
		recvInline: seg,
		sendPasses: []float64{copyRate},
		recvPasses: []float64{checksumRate, copyRate}, // receive checksum is never offloaded
	}
	if !offload {
		s.sendPasses = append(s.sendPasses, checksumRate)
	}
	if !cfg.TunedInterrupts {
		s.recvPasses = append(s.recvPasses, irqPathRate)
	}
	return s
}

// segments is the number of segments a message of size wire bytes takes.
func (s *Sheet) segments(size int) int { return 1 + (size-1)/s.mtu }

// dataCost is the charge for one data frame: per-segment work plus each
// per-byte pass over the content.
func dataCost(segs, content int, seg time.Duration, passes []float64) time.Duration {
	d := time.Duration(segs) * seg
	for _, rate := range passes {
		d += time.Duration(float64(content) / rate * float64(time.Second))
	}
	return d
}

// Stats reports endpoint activity.
type Stats struct {
	MsgsSent     uint64
	MsgsReceived uint64
	InlineSent   uint64
	Segments     uint64 // segments sent
	CPUSeconds   float64
}

// frame is the one payload the adapter puts on the fabric: fm.Payload
// points back at the frame. A message travels as one frame but is sized
// and charged as its segments, which keeps the simulator's message count
// down. Frames are pooled with their socket buffer, so a send plus its
// delivery allocates nothing once the pool is warm.
type frame struct {
	fm   fabric.Message
	msg  *memory.Message // what the receiver copies: the sender's buffer, or &sock
	sock memory.Message  // socket sheets: the copied header and socket buffer
	segs int
	tag  uint32 // inline frames
}

var frames = sync.Pool{New: func() any { return new(frame) }}

// Endpoint is one server's adapter port.
type Endpoint struct {
	fab   *fabric.Fabric
	port  int
	sheet Sheet
	scale float64

	recvAlloc func() *memory.Message    // posts receive buffers
	onRecv    func(*memory.Message)     // completion handler (data)
	onInline  func(src int, tag uint32) // completion handler (inline)

	queue   chan *frame
	stopCh  chan struct{}
	stopped atomic.Bool

	msgsSent, msgsRecv atomic.Uint64
	inlines, segments  atomic.Uint64
	cpuNanos           atomic.Int64
}

// New wires an endpoint with the given sheet to fabric port `port`.
//
// recvAlloc supplies posted receive buffers (the multiplexer draws them
// from its NUMA-aware pool, rotating sockets). onRecv and onInline are the
// completion handlers; they should hand off quickly.
func New(fab *fabric.Fabric, port int, sheet Sheet,
	recvAlloc func() *memory.Message,
	onRecv func(*memory.Message),
	onInline func(src int, tag uint32)) *Endpoint {

	ep := &Endpoint{
		fab:       fab,
		port:      port,
		sheet:     sheet,
		scale:     fab.Config().TimeScale,
		recvAlloc: recvAlloc,
		onRecv:    onRecv,
		onInline:  onInline,
		queue:     make(chan *frame, sheet.queue),
		stopCh:    make(chan struct{}),
	}
	fab.RegisterSink(port, ep.sink)
	return ep
}

// Start launches the completion goroutine: the socket sheets' network
// thread (§2.1.2), or the adapter's DMA engine under verbs.
func (ep *Endpoint) Start() { go ep.loop() }

// Close stops the completion goroutine.
func (ep *Endpoint) Close() {
	if ep.stopped.CompareAndSwap(false, true) {
		close(ep.stopCh)
	}
}

// Send transfers m to server dst; callers must not touch m afterwards. A
// socket sheet copies and checksums the payload on the calling goroutine
// (the send-side CPU of Figure 5) and releases m before returning, like a
// socket write. Verbs post the buffer and return (§2.2.1); the receiver's
// completion releases it.
func (ep *Endpoint) Send(dst int, m *memory.Message) {
	s := &ep.sheet
	size := m.WireSize()
	f := frames.Get().(*frame)
	f.segs = s.segments(size)
	f.msg = m
	if s.socket {
		copyMessage(&f.sock, m)
		ep.charge(dataCost(f.segs, len(m.Content), s.sendSeg, s.sendPasses))
		m.Release()
		f.msg = &f.sock
	}
	ep.msgsSent.Add(1)
	ep.segments.Add(uint64(f.segs))
	ep.post(f, dst, size+f.segs*s.segHeader, false)
}

// SendInline sends a small latency-critical message (the network
// scheduler's barriers, §3.2.3). No buffer is consumed on either side.
func (ep *Endpoint) SendInline(dst int, tag uint32) {
	ep.inlines.Add(1)
	ep.charge(ep.sheet.sendInline)
	f := frames.Get().(*frame)
	f.tag = tag
	ep.post(f, dst, ep.sheet.inlineSize, true)
}

func (ep *Endpoint) post(f *frame, dst, size int, inline bool) {
	f.fm = fabric.Message{Src: ep.port, Dst: dst, Size: size, Payload: f, Inline: inline}
	ep.fab.Send(&f.fm)
}

// sink runs on the fabric's ingress goroutine. A verbs inline frame
// completes right here; everything else queues for the completion
// goroutine, so neither a copy nor a stack charge runs on the paced link.
func (ep *Endpoint) sink(fm *fabric.Message) {
	f := fm.Payload.(*frame)
	if fm.Inline && !ep.sheet.socket {
		ep.complete(f)
		return
	}
	select {
	case ep.queue <- f:
	case <-ep.stopCh:
	}
}

func (ep *Endpoint) loop() {
	for {
		select {
		case f := <-ep.queue:
			ep.complete(f)
		case <-ep.stopCh:
			return
		}
	}
}

// complete is the one receive path: copy a data frame into the next posted
// buffer, release the sender's buffer under verbs, charge the sheet's
// receive cost and hand the result on.
func (ep *Endpoint) complete(f *frame) {
	s := &ep.sheet
	if f.fm.Inline {
		src, tag := f.fm.Src, f.tag
		frames.Put(f)
		ep.charge(s.recvInline)
		ep.onInline(src, tag)
		return
	}
	dst := ep.recvAlloc()
	copyMessage(dst, f.msg)
	if f.msg != &f.sock {
		f.msg.Release() // the send completion
	}
	segs, content := f.segs, len(dst.Content)
	f.msg = nil
	frames.Put(f)
	ep.msgsRecv.Add(1)
	ep.charge(dataCost(segs, content, s.recvSeg, s.recvPasses))
	ep.onRecv(dst)
}

// copyMessage copies src's wire part — the header fields and the content —
// into dst, reusing dst's buffer.
func copyMessage(dst, src *memory.Message) {
	dst.QueryID = src.QueryID
	dst.ExchangeID = src.ExchangeID
	dst.Last = src.Last
	dst.Sender = src.Sender
	dst.Seq = src.Seq
	dst.Part = src.Part
	dst.Content = append(dst.Content[:0], src.Content...)
}

func (ep *Endpoint) charge(d time.Duration) {
	ep.cpuNanos.Add(int64(d))
	spin.Burn(time.Duration(float64(d) * ep.scale))
}

// Stats returns a snapshot of the endpoint's counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		MsgsSent:     ep.msgsSent.Load(),
		MsgsReceived: ep.msgsRecv.Load(),
		InlineSent:   ep.inlines.Load(),
		Segments:     ep.segments.Load(),
		CPUSeconds:   float64(ep.cpuNanos.Load()) / 1e9,
	}
}
