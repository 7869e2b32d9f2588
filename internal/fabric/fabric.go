// Package fabric simulates the "network in the large": the cluster
// interconnect (Figure 1, Table 1 of the paper).
//
// The fabric connects N endpoints through a single switch, like the
// paper's 8-port InfiniScale IV. The wire model is LogP's (Culler et al.,
// PPoPP 1993): only the gap occupies a link, latency overlaps.
//
//   - Paced links. Every endpoint has an egress link (host → switch) and
//     an ingress link (switch → host), each paced at the configured data
//     rate: a frame occupies a link for size ÷ rate, one frame at a time,
//     FIFO. An ingress link takes frames in the order they reach the
//     switch, and never idles while one waits.
//   - Latency delays without holding. A frame is delivered one link
//     latency (LatencyOf) after its ingress link took it or finished
//     pacing it, whichever is later. Data and inline frames pay it alike,
//     and k frames sent back to back arrive about one latency after their
//     pacing, not k latencies.
//   - Credits. Each ingress port grants a fixed number of credits (buffer
//     slots); a frame to a port whose credits are exhausted waits at the
//     head of its sender's FIFO, and the frames *behind* it wait too —
//     head-of-line blocking / credit starvation, exactly the
//     switch-contention mechanism of §3.2.3.
//
// The model is arithmetic: links are instants, not goroutines. Under one
// mutex, Send puts a frame on its sender's FIFO and computes when it
// leaves it and reaches the switch. Which frames reach a port first is
// settled only once that instant has passed, so the switch books a frame
// on its destination's buffer and ingress link when it gets there: within
// Send for a frame on an idle uplink, on the one switch goroutine for a
// frame queued behind a busy one. Booking fixes the frame's delivery
// instant and puts it on the destination's delay line; one delivery
// goroutine per port hands each frame to the port's sink once it is due.
//
// Time is wall-clock time scaled by TimeScale, so the bandwidth *ratios*
// between data rates (Table 1) are preserved while experiments stay fast.
// No wait spins a core: short waits yield it (runtime.Gosched), long ones
// sleep.
//
// Uncoordinated all-to-all traffic collides on ingress ports and loses
// throughput; the round-robin schedule of package sched avoids collisions
// by construction. This reproduces Figure 10(b) without hard-coding its
// outcome.
package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Rate is a link data rate in (simulated) bytes per second.
type Rate float64

// Data rates from Table 1 of the paper.
const (
	GbE     Rate = 0.125e9
	IB4xSDR Rate = 1e9
	IB4xDDR Rate = 2e9
	IB4xQDR Rate = 4e9
	IB4xFDR Rate = 6.8e9
	IB4xEDR Rate = 12.1e9
)

// LatencyOf returns the one-way latency of a data link standard (Table 1).
func LatencyOf(r Rate) time.Duration {
	switch r {
	case GbE:
		return 340 * time.Microsecond
	case IB4xSDR:
		return 5 * time.Microsecond
	case IB4xDDR:
		return 2500 * time.Nanosecond
	case IB4xQDR:
		return 1300 * time.Nanosecond
	case IB4xFDR:
		return 700 * time.Nanosecond
	case IB4xEDR:
		return 500 * time.Nanosecond
	default:
		return 5 * time.Microsecond
	}
}

// NameOf returns the human name of a data link standard.
func NameOf(r Rate) string {
	switch r {
	case GbE:
		return "GbE"
	case IB4xSDR:
		return "IB 4xSDR"
	case IB4xDDR:
		return "IB 4xDDR"
	case IB4xQDR:
		return "IB 4xQDR"
	case IB4xFDR:
		return "IB 4xFDR"
	case IB4xEDR:
		return "IB 4xEDR"
	default:
		return fmt.Sprintf("%.3g GB/s", float64(r)/1e9)
	}
}

// Message is one transfer unit on the fabric.
type Message struct {
	Src, Dst int
	// Size is the number of (simulated) wire bytes, used for pacing.
	Size int
	// Payload travels by reference: zero copies happen in the fabric
	// itself. Transports add their own copy semantics on top (RDMA: none;
	// TCP: application↔socket buffer copies).
	Payload any
	// Inline marks an inline message (scheduling barriers, probes). The
	// fabric paces and delays it like any frame; endpoints complete it
	// without a receive buffer.
	Inline bool
}

// Config configures a fabric.
type Config struct {
	// Ports is the number of endpoints attached to the switch.
	Ports int
	// Rate is the per-link data rate in simulated bytes/second.
	Rate Rate
	// TimeScale converts simulated seconds to wall-clock seconds
	// (wall = sim × TimeScale). Zero means 1.0.
	TimeScale float64
}

const (
	// credits is the number of ingress buffer slots per port.
	credits = 4
	// egressQueue is the per-sender FIFO depth.
	egressQueue = 64
	// inFlight bounds the undelivered frames to one port: a Send to a full
	// port waits like a sender facing a closed receive window, so a
	// receiver slower than its link throttles its senders. Nothing drops.
	inFlight = 64
	// burst is how far an idle link may back-date its next frame: it is
	// not charged for time it sat idle, but gets no unbounded credit.
	burst = 6 * time.Millisecond
	// never is an instant no wait reaches: 146 years on.
	never = time.Duration(1 << 62)
)

// trip is a frame's path: Send puts it on its sender's FIFO; it leaves
// the FIFO; its egress pacing ends; it reaches the switch; it enters the
// destination's buffer, holding a credit; the ingress link takes it,
// returning the credit; its ingress pacing ends; it is due. Instants, like
// all of the fabric's, are offsets from Fabric.epoch.
type trip struct {
	m                                                         *Message
	sent, left, egress, reached, entered, taken, ingress, due time.Duration
}

// port is one endpoint's cable, guarded by Fabric.mu. Each link keeps
// when its last pacing ends and when it takes its next frame.
type port struct {
	upPaced, upFree, downPaced, downFree time.Duration

	fifo            []trip // fifo[head:]: sent, not yet in a buffer; the first has left the FIFO
	head            int
	nsent, nentered int
	taken           [credits]time.Duration // when the last frames left this port's buffer
	ntaken          int

	line chan trip     // frames booked here, in due order
	room chan struct{} // one token per frame sent here and not yet delivered
}

// Fabric is the switch plus its links. Create with New, then RegisterSink
// for each port, then Start.
type Fabric struct {
	cfg   Config
	lat   time.Duration // one link latency in wall time
	sinks []func(*Message)
	// epoch lies one burst before New, so a new link back-dates in full.
	epoch time.Time

	mu    sync.Mutex
	ports []port
	wake  time.Duration // when the switch goroutine looks next; kick wakes it sooner
	kick  chan struct{}

	bytesDelivered atomic.Uint64
	msgsDelivered  atomic.Uint64
	msgsDropped    atomic.Uint64

	// partitioned[port] marks a port cut off from the switch: the switch
	// drops every frame to or from it (a cable pull / switch-port failure).
	// Loopback traffic never reaches the switch and is unaffected.
	partitioned []atomic.Bool

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
	started   atomic.Bool
}

// New creates a fabric. Sinks must be registered before Start.
func New(cfg Config) (*Fabric, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("fabric: need at least one port, got %d", cfg.Ports)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("fabric: rate must be positive, got %v", cfg.Rate)
	}
	c := cfg
	if c.TimeScale == 0 {
		c.TimeScale = 1.0
	}
	f := &Fabric{
		cfg:         c,
		lat:         time.Duration(float64(LatencyOf(c.Rate)) * c.TimeScale),
		sinks:       make([]func(*Message), c.Ports),
		epoch:       time.Now().Add(-burst),
		ports:       make([]port, c.Ports),
		kick:        make(chan struct{}, 1),
		partitioned: make([]atomic.Bool, c.Ports),
		stopCh:      make(chan struct{}),
	}
	for i := range f.ports {
		f.ports[i].line = make(chan trip, inFlight)
		f.ports[i].room = make(chan struct{}, inFlight)
	}
	return f, nil
}

// Config returns the effective configuration.
func (f *Fabric) Config() Config { return f.cfg }

// BDP returns the bandwidth-delay product of the fabric's links in bytes:
// how much a link carries during one latency (42.5 KB at GbE, 5.2 KB at
// 4xQDR). A message no larger than that is latency-bound, not
// bandwidth-bound.
func (f *Fabric) BDP() int {
	return int(LatencyOf(f.cfg.Rate).Seconds() * float64(f.cfg.Rate))
}

// RegisterSink installs the delivery callback for a port: the receiver's
// completion path. The callback runs on the port's delivery goroutine; it
// must not block for long or it stalls the delay line and then the port's
// senders (which is realistic: an unread receive queue exerts
// backpressure).
func (f *Fabric) RegisterSink(port int, sink func(*Message)) {
	if f.started.Load() {
		panic("fabric: RegisterSink after Start")
	}
	f.sinks[port] = sink
}

// Start launches one delivery goroutine per port and the switch goroutine.
func (f *Fabric) Start() {
	f.startOnce.Do(func() {
		f.started.Store(true)
		for i := 0; i < f.cfg.Ports; i++ {
			if f.sinks[i] == nil {
				panic(fmt.Sprintf("fabric: port %d has no sink", i))
			}
			f.wg.Add(1)
			go f.deliveryPump(i)
		}
		f.wg.Add(1)
		go f.switchPump()
	})
}

// Stop shuts the fabric down. In-flight messages may be dropped; callers
// should quiesce traffic first.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

// Send puts the frame on its source's egress FIFO. It blocks while the
// destination has inFlight frames undelivered and until the frame fits in
// the FIFO, or until the fabric stops. Send panics on malformed
// addresses: that is a harness bug, not a runtime condition.
func (f *Fabric) Send(m *Message) {
	if m.Src < 0 || m.Src >= f.cfg.Ports || m.Dst < 0 || m.Dst >= f.cfg.Ports {
		panic(fmt.Sprintf("fabric: bad address src=%d dst=%d ports=%d", m.Src, m.Dst, f.cfg.Ports))
	}
	if m.Src == m.Dst {
		// Loopback skips the switch: deliver directly, still counting it.
		f.deliver(m)
		return
	}
	select {
	case f.ports[m.Dst].room <- struct{}{}:
	case <-f.stopCh:
		return
	}
	src := &f.ports[m.Src]
	f.mu.Lock()
	seq := f.enqueue(m, f.now())
	for {
		f.advance(f.now())
		at, known := src.fits(seq)
		f.mu.Unlock()
		if !f.sleepUntil(at, nil) || known {
			return
		}
		f.mu.Lock()
	}
}

// now is the fabric's clock.
func (f *Fabric) now() time.Duration { return time.Since(f.epoch) }

// wire is how long n bytes occupy a link.
func (f *Fabric) wire(n int) time.Duration {
	return time.Duration(float64(n) / float64(f.cfg.Rate) * f.cfg.TimeScale * float64(time.Second))
}

// enqueue puts m at the tail of its sender's FIFO at now and returns its
// place in the sender's sequence. The caller holds f.mu.
func (f *Fabric) enqueue(m *Message, now time.Duration) int {
	src := &f.ports[m.Src]
	if len(src.fifo) == cap(src.fifo) && src.head > 0 {
		n := copy(src.fifo, src.fifo[src.head:])
		clear(src.fifo[n:])
		src.fifo, src.head = src.fifo[:n], 0
	}
	src.fifo = append(src.fifo, trip{m: m, sent: now})
	src.nsent++
	if len(src.fifo)-src.head == 1 {
		f.leave(src)
	}
	return src.nsent - 1
}

// fits returns when frame seq of this sender fits in its FIFO: when the
// frame egressQueue places ahead left it. Until that is known it returns
// false and when to look again: when the FIFO's head reaches the switch.
func (p *port) fits(seq int) (time.Duration, bool) {
	switch ahead := seq - egressQueue; {
	case ahead < p.nentered:
		return 0, true // it left, and since entered a buffer
	case ahead == p.nentered:
		return p.fifo[p.head].left, true
	default:
		return p.fifo[p.head].reached, false
	}
}

// leave lets the FIFO's head onto the egress link once the frame before it
// has moved on, so a head waiting for a credit holds up the rest, and
// paces it to the switch. The caller holds f.mu.
func (f *Fabric) leave(p *port) {
	t := &p.fifo[p.head]
	t.left = max(t.sent, p.upFree)
	t.egress = pace(&p.upPaced, t.left, f.wire(t.m.Size))
	t.reached = max(t.left, t.egress)
	if t.reached < f.wake {
		f.wake = t.reached
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// advance books every frame that has reached the switch by now, in the
// order they reached it, and returns when the next one does. A frame not
// yet there stays unbooked: one sent later may still get there first. The
// caller holds f.mu.
func (f *Fabric) advance(now time.Duration) time.Duration {
	for {
		var first *port // the one whose FIFO head reaches the switch first
		for i := range f.ports {
			if p := &f.ports[i]; p.head < len(p.fifo) && (first == nil || p.fifo[p.head].reached < first.fifo[first.head].reached) {
				first = p
			}
		}
		if first == nil {
			return never
		}
		if next := first.fifo[first.head].reached; next > now {
			return next
		}
		f.book(first)
	}
}

// book takes the FIFO head of src off it at the switch. A frame touching a
// partitioned port is dropped there, after its sender paid its egress: it
// cannot tell a drop from a delivery. Otherwise the frame enters the
// destination's buffer, holding a credit until the ingress link takes it,
// and goes on the destination's delay line. The caller holds f.mu.
func (f *Fabric) book(src *port) {
	t := src.fifo[src.head]
	src.fifo[src.head] = trip{}
	src.head++
	src.nentered++
	dst := &f.ports[t.m.Dst]
	if f.partitioned[t.m.Src].Load() || f.partitioned[t.m.Dst].Load() {
		f.msgsDropped.Add(1)
		select {
		case <-dst.room: // the frame's own token
		default:
			panic("fabric: dropped frame held no room")
		}
		src.upFree = t.reached
	} else {
		credit := &dst.taken[dst.ntaken%credits]
		t.entered = max(t.reached, *credit)
		src.upFree = t.entered
		t.taken = max(t.entered, dst.downFree)
		*credit = t.taken
		dst.ntaken++
		t.ingress = pace(&dst.downPaced, t.taken, f.wire(t.m.Size))
		dst.downFree = max(t.taken, t.ingress)
		t.due = dst.downFree + f.lat
		select {
		case dst.line <- t:
		default: // the room token holds a slot
			panic("fabric: delay line overfull")
		}
	}
	if src.head == len(src.fifo) {
		src.fifo, src.head = src.fifo[:0], 0
	} else {
		f.leave(src)
	}
}

// pace occupies a link for d from start, back-dated by at most burst, and
// returns when its pacing ends.
func pace(paced *time.Duration, start, d time.Duration) time.Duration {
	*paced = max(*paced, start-burst) + d
	return *paced
}

// SetPartitioned cuts port off from (or reconnects it to) the switch.
// While partitioned, every non-loopback message to or from the port —
// inline barriers and probes included — is silently dropped at the switch,
// exactly like a pulled cable: neither side gets an error, traffic just
// stops. The switch looks when a frame reaches it, so a frame still queued
// on its sender's FIFO when the partition heals gets through. Payloads of
// dropped messages are not released back to their pools; the simulation
// accepts that bounded leak the same way a real NIC loses in-flight
// frames.
func (f *Fabric) SetPartitioned(port int, on bool) {
	f.partitioned[port].Store(on)
}

// Partitioned reports whether the port is currently cut off.
func (f *Fabric) Partitioned(port int) bool { return f.partitioned[port].Load() }

// MessagesDropped returns the number of messages dropped at partitioned
// ports.
func (f *Fabric) MessagesDropped() uint64 { return f.msgsDropped.Load() }

// BytesDelivered returns the total payload bytes delivered so far.
func (f *Fabric) BytesDelivered() uint64 { return f.bytesDelivered.Load() }

// MessagesDelivered returns the number of messages delivered so far.
func (f *Fabric) MessagesDelivered() uint64 { return f.msgsDelivered.Load() }

// switchPump books frames queued behind a busy uplink as they reach the
// switch. A Send books what has reached it by then; this goroutine covers
// the instants no Send happens to look at, so a sink that blocks a
// delivery goroutine never holds up the switch.
func (f *Fabric) switchPump() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		f.wake = f.advance(f.now())
		wake := f.wake
		f.mu.Unlock()
		if !f.sleepUntil(wake, f.kick) {
			return
		}
	}
}

// deliveryPump hands each frame on a port's delay line to the sink once it
// is due. The switch books a port's frames in due order, so one goroutine
// waiting on the head serves the line.
func (f *Fabric) deliveryPump(port int) {
	defer f.wg.Done()
	for {
		select {
		case t := <-f.ports[port].line:
			<-f.ports[port].room
			if !f.sleepUntil(t.due, nil) {
				return
			}
			f.deliver(t.m)
		case <-f.stopCh:
			return
		}
	}
}

func (f *Fabric) deliver(m *Message) {
	f.bytesDelivered.Add(uint64(m.Size))
	f.msgsDelivered.Add(1)
	f.sinks[m.Dst](m)
}

// timers are the reusable timers of long waits.
var timers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// sleepUntil waits for an instant, or for a kick, and reports whether the
// fabric is still running. A timer can fire 1–2 ms late, so short waits
// poll the clock, yielding the core between polls so query workers run
// meanwhile. A frame delivered late does not delay the ones behind it.
func (f *Fabric) sleepUntil(at time.Duration, kick chan struct{}) bool {
	t := f.epoch.Add(at)
	if d := time.Until(t); d > 300*time.Microsecond {
		timer := timers.Get().(*time.Timer)
		defer timers.Put(timer)
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-kick:
			return true
		case <-f.stopCh:
			return false
		}
	}
	for time.Now().Before(t) {
		select {
		case <-kick:
			return true
		default:
		}
		runtime.Gosched()
	}
	return true
}
