// Package fabric simulates the "network in the large": the cluster
// interconnect (Figure 1, Table 1 of the paper).
//
// The fabric connects N endpoints through a single switch, like the
// paper's 8-port InfiniScale IV. The wire model is LogP's (Culler et al.,
// PPoPP 1993): only the gap occupies a link, latency overlaps.
//
//   - Pacers hold the link. Every endpoint has an egress link (host →
//     switch) and an ingress link (switch → host), each paced at the
//     configured data rate: a frame occupies a link for size ÷ rate, one
//     frame at a time, FIFO.
//   - Latency delays without holding. Once a frame's ingress pacing ends
//     it enters the port's delay line and is delivered one link latency
//     (LatencyOf) later. Data and inline frames pay it alike, and a frame
//     waiting out its latency does not keep the next one off the link, so
//     k frames sent back to back arrive about one latency after their
//     pacing, not k latencies.
//   - Credits. Each ingress port grants a fixed number of credits (buffer
//     slots); a sender that targets a port whose credits are exhausted
//     blocks, and because its egress queue is FIFO, the messages *behind*
//     the blocked head also stall — head-of-line blocking / credit
//     starvation, exactly the switch-contention mechanism of §3.2.3.
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
	// inFlight bounds the frames a port's delay line holds at once; a full
	// line holds the ingress link like a closed receive window. A full-size
	// message paces longer than a latency at every modelled rate, so only a
	// burst of small frames (barriers, probes, Last markers) can fill it,
	// and a full line only delays the next frame; it drops nothing.
	inFlight = 64
)

// timed is a frame on a delay line with the instant it is delivered.
type timed struct {
	m   *Message
	due time.Time
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TimeScale == 0 {
		out.TimeScale = 1.0
	}
	return out
}

// Fabric is the switch plus its links. Create with New, then RegisterSink
// for each port, then Start.
type Fabric struct {
	cfg     Config
	egress  []chan *Message // per-sender FIFO
	ingress []chan *Message // per-receiver credit-bounded buffer
	line    []chan timed    // per-receiver delay line: paced frames waiting out the latency
	lat     time.Duration   // one link latency in wall time
	sinks   []func(*Message)
	epace   []*pacer // egress link pacers
	ipace   []*pacer // ingress link pacers

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
	c := cfg.withDefaults()
	f := &Fabric{
		cfg:         c,
		egress:      make([]chan *Message, c.Ports),
		ingress:     make([]chan *Message, c.Ports),
		line:        make([]chan timed, c.Ports),
		lat:         time.Duration(float64(LatencyOf(c.Rate)) * c.TimeScale),
		sinks:       make([]func(*Message), c.Ports),
		epace:       make([]*pacer, c.Ports),
		ipace:       make([]*pacer, c.Ports),
		partitioned: make([]atomic.Bool, c.Ports),
		stopCh:      make(chan struct{}),
	}
	for i := 0; i < c.Ports; i++ {
		f.egress[i] = make(chan *Message, egressQueue)
		f.ingress[i] = make(chan *Message, credits)
		f.line[i] = make(chan timed, inFlight)
		f.epace[i] = newPacer(float64(c.Rate), c.TimeScale)
		f.ipace[i] = newPacer(float64(c.Rate), c.TimeScale)
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

// RegisterSink installs the delivery callback for a port. The callback runs
// on the port's delivery goroutine; it must not block for long or it
// stalls the delay line and then the simulated link (which is realistic:
// an unread receive queue exerts backpressure).
func (f *Fabric) RegisterSink(port int, sink func(*Message)) {
	if f.started.Load() {
		panic("fabric: RegisterSink after Start")
	}
	f.sinks[port] = sink
}

// Start launches the per-port pump goroutines.
func (f *Fabric) Start() {
	f.startOnce.Do(func() {
		f.started.Store(true)
		for i := 0; i < f.cfg.Ports; i++ {
			if f.sinks[i] == nil {
				panic(fmt.Sprintf("fabric: port %d has no sink", i))
			}
			f.wg.Add(3)
			go f.egressPump(i)
			go f.ingressPump(i)
			go f.deliveryPump(i)
		}
	})
}

// Stop shuts the fabric down. In-flight messages may be dropped; callers
// should quiesce traffic first.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

// Send enqueues a message on the source port's egress FIFO. It blocks when
// the FIFO is full (backpressure into the application, like a full send
// work queue). Send panics on malformed addresses: that is a harness bug,
// not a runtime condition.
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
	case f.egress[m.Src] <- m:
	case <-f.stopCh:
	}
}

// SetPartitioned cuts port off from (or reconnects it to) the switch.
// While partitioned, every non-loopback message to or from the port —
// inline barriers and probes included — is silently dropped at the switch,
// exactly like a pulled cable: neither side gets an error, traffic just
// stops. Payloads of dropped messages are not released back to their
// pools; the simulation accepts that bounded leak the same way a real NIC
// loses in-flight frames.
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

// egressPump serializes a host's outgoing messages onto its uplink, then
// forwards to the target ingress port. The forward blocks when the target
// port is out of credits; because this pump is the only consumer of the
// host's FIFO, everything behind the head message stalls too (HOL).
func (f *Fabric) egressPump(port int) {
	defer f.wg.Done()
	for {
		select {
		case m := <-f.egress[port]:
			f.epace[port].wait(m.Size)
			if f.partitioned[m.Src].Load() || f.partitioned[m.Dst].Load() {
				// The switch drops frames touching a partitioned port after
				// the sender paid its egress serialization — the sender
				// cannot tell a drop from a delivery.
				f.msgsDropped.Add(1)
				continue
			}
			select {
			case f.ingress[m.Dst] <- m:
			case <-f.stopCh:
				return
			}
		case <-f.stopCh:
			return
		}
	}
}

// ingressPump serializes a host's incoming messages on its downlink and
// puts each on the port's delay line, due one latency after its pacing
// ended. The latency runs on the line, not here, so it never holds the
// link.
func (f *Fabric) ingressPump(port int) {
	defer f.wg.Done()
	for {
		select {
		case m := <-f.ingress[port]:
			f.ipace[port].wait(m.Size)
			select {
			case f.line[port] <- timed{m: m, due: time.Now().Add(f.lat)}:
			case <-f.stopCh:
				return
			}
		case <-f.stopCh:
			return
		}
	}
}

// deliveryPump hands each frame on a port's delay line to the sink once it
// is due. Due instants are pacing ends plus a constant, so the line is
// FIFO and in due order: one goroutine waiting on the head serves it.
func (f *Fabric) deliveryPump(port int) {
	defer f.wg.Done()
	for {
		select {
		case t := <-f.line[port]:
			sleepUntil(t.due)
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

// pacer enforces a byte rate in wall-clock time. It tracks the time the
// link becomes free; waiters sleep (or yield, for sub-scheduler durations)
// until their transmission completes. The mutex serializes the
// link — one transmission at a time, FIFO by arrival.
//
// The bucket allows bounded *catch-up*: when the pump goroutine wakes late
// (GC, OS jitter), nextFree lies in the past and subsequent transmissions
// may start back-dated by up to `burst`, so transient scheduling delays do
// not permanently deflate the modeled link rate.
type pacer struct {
	mu       sync.Mutex
	nextFree time.Time
	rate     float64 // simulated bytes per second
	scale    float64 // wall seconds per simulated second
	burst    time.Duration
}

func newPacer(rate, scale float64) *pacer {
	return &pacer{rate: rate, scale: scale, burst: 6 * time.Millisecond}
}

// wait blocks until size bytes have "crossed" the link.
func (p *pacer) wait(size int) {
	if size <= 0 {
		return
	}
	durWall := time.Duration(float64(size) / p.rate * p.scale * float64(time.Second))
	p.mu.Lock()
	now := time.Now()
	start := p.nextFree
	if floor := now.Add(-p.burst); start.Before(floor) {
		start = floor // idle link: don't grant unbounded credit
	}
	done := start.Add(durWall)
	p.nextFree = done
	p.mu.Unlock()
	sleepUntil(done)
}

// sleepUntil waits for a deadline. The host kernel's sleep granularity is
// coarse (time.Sleep can overshoot by 1–2 ms), so short waits poll the
// clock, yielding the core between polls so query workers run meanwhile;
// long waits sleep and let the pacer's burst catch-up absorb the
// overshoot, keeping the modeled rate exact for sustained streams.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	switch {
	case d <= 0:
		return
	case d <= 300*time.Microsecond:
		for time.Now().Before(t) {
			runtime.Gosched()
		}
	default:
		time.Sleep(d)
	}
}
