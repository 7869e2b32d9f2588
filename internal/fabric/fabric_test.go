package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDelivery(t *testing.T) {
	fab, err := New(Config{Ports: 3, Rate: IB4xQDR, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	var got [3]atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(6)
	for p := 0; p < 3; p++ {
		p := p
		fab.RegisterSink(p, func(m *Message) {
			got[p].Add(1)
			wg.Done()
		})
	}
	fab.Start()
	defer fab.Stop()
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src != dst {
				fab.Send(&Message{Src: src, Dst: dst, Size: 100})
			}
		}
	}
	wg.Wait()
	for p := 0; p < 3; p++ {
		if got[p].Load() != 2 {
			t.Fatalf("port %d got %d messages, want 2", p, got[p].Load())
		}
	}
	if fab.MessagesDelivered() != 6 {
		t.Fatalf("delivered %d", fab.MessagesDelivered())
	}
}

func TestLoopbackSkipsSwitch(t *testing.T) {
	fab, _ := New(Config{Ports: 1, Rate: GbE, TimeScale: 1})
	done := make(chan struct{})
	fab.RegisterSink(0, func(m *Message) { close(done) })
	fab.Start()
	defer fab.Stop()
	start := time.Now()
	fab.Send(&Message{Src: 0, Dst: 0, Size: 10 << 20}) // 10MB at GbE would take 80ms+
	<-done
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("loopback paid switch pacing")
	}
}

func TestBadAddressPanics(t *testing.T) {
	fab, _ := New(Config{Ports: 2, Rate: GbE})
	fab.RegisterSink(0, func(*Message) {})
	fab.RegisterSink(1, func(*Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("bad destination did not panic")
		}
	}()
	fab.Send(&Message{Src: 0, Dst: 5, Size: 1})
}

func TestPacingEnforcesRate(t *testing.T) {
	// 40 × 1 MB at a simulated 1 GB/s with scale 1 must take ≈42 ms wall,
	// less the links' burst back-dating, give or take scheduling.
	fab, _ := New(Config{Ports: 2, Rate: 1e9, TimeScale: 1})
	const n = 40
	var wg sync.WaitGroup
	wg.Add(n)
	fab.RegisterSink(0, func(*Message) {})
	fab.RegisterSink(1, func(*Message) { wg.Done() })
	fab.Start()
	defer fab.Stop()
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			fab.Send(&Message{Src: 0, Dst: 1, Size: 1 << 20})
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	wantMin := 25 * time.Millisecond // 40 MB over 1 GB/s ≈ 42 ms, minus burst credit
	if elapsed < wantMin {
		t.Fatalf("pacing too fast: %v for 40MB at 1GB/s", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("pacing too slow: %v", elapsed)
	}
}

func TestRatePresetsOrdered(t *testing.T) {
	rates := []Rate{GbE, IB4xSDR, IB4xDDR, IB4xQDR, IB4xFDR, IB4xEDR}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("rates not increasing at %d", i)
		}
		if LatencyOf(rates[i]) >= LatencyOf(rates[i-1]) {
			t.Fatalf("latencies not decreasing at %d", i)
		}
	}
	if NameOf(GbE) != "GbE" || NameOf(IB4xQDR) != "IB 4xQDR" {
		t.Fatal("names broken")
	}
	// Table 1 ratio: QDR is 32× GbE.
	if IB4xQDR/GbE != 32 {
		t.Fatalf("QDR/GbE = %v, want 32", IB4xQDR/GbE)
	}
}

func TestConfigDefaults(t *testing.T) {
	fab, err := New(Config{Ports: 2, Rate: IB4xQDR})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fab.Config()
	if cfg.TimeScale != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if _, err := New(Config{Ports: 0, Rate: 1}); err == nil {
		t.Fatal("zero ports accepted")
	}
	if _, err := New(Config{Ports: 1, Rate: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestLatencyPipelines pins the wire model: latency delays a frame
// without holding the link. k small frames sent back to back to one port
// all arrive about one latency after their pacing ends, not k latencies
// after, and a data frame pays the same latency as an inline frame. No
// frame may arrive before one latency; the upper bounds take the best of
// five tries, so a host that deschedules the delivery goroutine once does
// not fail them.
func TestLatencyPipelines(t *testing.T) {
	const scale = 10 // GbE latency 340 µs → 3.4 ms of wall time
	fab, _ := New(Config{Ports: 2, Rate: GbE, TimeScale: scale})
	lat := time.Duration(float64(LatencyOf(GbE)) * scale)
	if bdp := fab.BDP(); bdp != 42500 { // 340 µs × 0.125 GB/s, whatever the time scale
		t.Fatalf("GbE bandwidth-delay product %d bytes, want 42500", bdp)
	}
	arrived := make(chan time.Time, 64)
	fab.RegisterSink(0, func(*Message) {})
	fab.RegisterSink(1, func(*Message) { arrived <- time.Now() })
	fab.Start()
	defer fab.Stop()

	// send puts k frames on the wire back to back and returns the time
	// from the first Send to the first and to the last delivery. Pacing
	// 16 bytes takes 1.3 µs per link here: the frames' whole cost is the
	// latency.
	send := func(k int, inline bool) (first, last time.Duration) {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fab.Send(&Message{Src: 0, Dst: 1, Size: 16, Inline: inline})
		}
		for i := 0; i < k; i++ {
			last = (<-arrived).Sub(t0)
			if i == 0 {
				first = last
			}
		}
		if first < lat*9/10 {
			t.Fatalf("a frame arrived %v after Send, before one latency (%v)", first, lat)
		}
		return first, last
	}
	const k, tries = 10, 5
	burst, data, inline := time.Hour, time.Hour, time.Hour
	for i := 0; i < tries; i++ {
		_, last := send(k, true)
		d, _ := send(1, false)
		in, _ := send(1, true)
		burst, data, inline = min(burst, last), min(data, d), min(inline, in)
	}
	if got := fab.MessagesDelivered(); got != tries*(k+2) {
		t.Fatalf("delivered %d frames, want %d", got, tries*(k+2))
	}

	if raceEnabled {
		t.Log("race detector enabled: skipping the latency upper bounds")
		return
	}
	if burst > 3*lat {
		t.Fatalf("%d back-to-back frames took %v; latency must overlap (one latency %v, serial %v)",
			k, burst, lat, k*lat)
	}
	if data > 3*lat || inline > 3*lat {
		t.Fatalf("one-way time data %v / inline %v, want about one latency (%v)", data, inline, lat)
	}
	if diff := data - inline; diff > lat/2 || diff < -lat/2 {
		t.Fatalf("data frame %v and inline frame %v pay different latencies", data, inline)
	}
}

// TestCreditStarvationBlocksHead pins the switch-contention mechanism of
// §3.2.3: a port whose ingress link is busy runs out of credits once its
// buffer holds credits frames, a frame to it cannot enter the buffer, and
// every frame queued behind that one on the sender's FIFO waits with it,
// even one bound for an idle port. Far fewer than inFlight frames are
// outstanding, so only the credits and the FIFO hold the frames back.
func TestCreditStarvationBlocksHead(t *testing.T) {
	fab, _ := New(Config{Ports: 3, Rate: IB4xSDR, TimeScale: 1})
	const big = 40 << 20 // 42 ms on a link at 1 GB/s, 36 ms once back-dated
	bigAt := make(chan time.Time, 1)
	at1 := make(chan time.Time, 4)
	fab.RegisterSink(0, func(*Message) {})
	fab.RegisterSink(1, func(*Message) { at1 <- time.Now() })
	fab.RegisterSink(2, func(m *Message) {
		if m.Size == big {
			bigAt <- time.Now()
		}
	})
	fab.Start()
	defer fab.Stop()

	// A lone frame to the idle port 1, for scale.
	t0 := time.Now()
	fab.Send(&Message{Src: 0, Dst: 1, Size: 16})
	lone := (<-at1).Sub(t0)

	// Port 1 sends port 2 a big frame, then credits small ones. Once the
	// big frame reaches the switch, about 36 ms on, port 2's ingress link
	// paces it for as long again, while the small ones wait in its buffer
	// and hold every credit.
	for i := 0; i <= credits; i++ {
		size := 16
		if i == 0 {
			size = big
		}
		fab.Send(&Message{Src: 1, Dst: 2, Size: size})
	}
	time.Sleep(45 * time.Millisecond)

	// Port 0 sends one frame to the starved port 2, then one to port 1.
	sent := time.Now()
	fab.Send(&Message{Src: 0, Dst: 2, Size: 16})
	fab.Send(&Message{Src: 0, Dst: 1, Size: 16})
	second := <-at1
	freed := <-bigAt // port 2's ingress link is free again: a credit comes back

	// Port 0's first frame enters port 2's buffer once port 2's link has
	// finished the big frame, so its second frame is due with the big one.
	if second.Before(freed.Add(-5 * time.Millisecond)) {
		t.Fatalf("the frame behind a credit-starved head arrived %v after Send, %v before port 2's link freed",
			second.Sub(sent), freed.Sub(second))
	}
	if raceEnabled {
		t.Log("race detector enabled: skipping the upper bounds")
		return
	}
	if lone > 5*time.Millisecond {
		t.Fatalf("a lone frame to an idle port took %v", lone)
	}
	if d := second.Sub(freed); d > 10*time.Millisecond {
		t.Fatalf("the blocked frame arrived %v after port 2's link freed; want about one latency", d)
	}
}

// TestStalledReceiverBlocksSenders pins receiver backpressure: once a
// port's receiver stops reading, inFlight frames to it stay undelivered,
// a Send to it waits until the receiver reads again, and so does the
// sender's next frame, even one bound for an idle port.
func TestStalledReceiverBlocksSenders(t *testing.T) {
	fab, _ := New(Config{Ports: 3, Rate: IB4xSDR, TimeScale: 1})
	release := make(chan struct{})
	at1 := make(chan time.Time, 4)
	fab.RegisterSink(0, func(*Message) {})
	fab.RegisterSink(1, func(*Message) { at1 <- time.Now() })
	fab.RegisterSink(2, func(*Message) { <-release }) // port 2's receiver stalls until released
	fab.Start()

	// Port 1 streams 64 KB frames at the stalled port 2 until its Sends
	// block, and the count of Sends returned stops moving.
	var flooded atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			fab.Send(&Message{Src: 1, Dst: 2, Size: 64 << 10})
			flooded.Add(1)
		}
	}()
	waitStalled(t, &flooded)

	// Port 0 sends one frame to the stalled port 2, then one to port 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		fab.Send(&Message{Src: 0, Dst: 2, Size: 16})
		fab.Send(&Message{Src: 0, Dst: 1, Size: 16})
	}()
	const hold = 40 * time.Millisecond
	time.Sleep(hold)
	resumed := time.Now()
	close(release) // port 2 reads again
	second := <-at1
	fab.Stop()
	wg.Wait()

	if second.Before(resumed) {
		t.Fatalf("the frame behind a Send to a stalled port arrived %v before the port resumed", resumed.Sub(second))
	}
	if raceEnabled {
		t.Log("race detector enabled: skipping the upper bound")
		return
	}
	if d := second.Sub(resumed); d > 10*time.Millisecond {
		t.Fatalf("the blocked frame arrived %v after port 2 resumed; want about one latency", d)
	}
}

// waitStalled returns once the count of Sends a flood has returned has
// stood still for 50 ms: the flood is blocked.
func waitStalled(t *testing.T, sent *atomic.Int64) {
	t.Helper()
	for last, still, deadline := int64(-1), time.Now(), time.Now().Add(10*time.Second); ; time.Sleep(time.Millisecond) {
		if n := sent.Load(); n != last {
			last, still = n, time.Now()
		} else if time.Since(still) > 50*time.Millisecond {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the flood never blocked")
		}
	}
}

// TestStopReleasesBlockedSend: a Send held up by a receiver that stopped
// reading returns once the fabric stops, while that receiver still holds
// its delivery goroutine.
func TestStopReleasesBlockedSend(t *testing.T) {
	fab, _ := New(Config{Ports: 2, Rate: IB4xQDR, TimeScale: 1})
	release := make(chan struct{})
	fab.RegisterSink(0, func(*Message) {})
	fab.RegisterSink(1, func(*Message) { <-release })
	fab.Start()
	var sent atomic.Int64
	flooding := make(chan struct{})
	go func() {
		defer close(flooding)
		for i := 0; i < 1000; i++ {
			fab.Send(&Message{Src: 0, Dst: 1, Size: 16})
			sent.Add(1)
		}
	}()
	waitStalled(t, &sent)
	stopped := make(chan struct{})
	go func() {
		fab.Stop()
		close(stopped)
	}()
	select {
	case <-flooding:
	case <-time.After(5 * time.Second):
		t.Error("a Send blocked by a stalled receiver did not return when the fabric stopped")
	}
	close(release)
	<-stopped
}

// TestPartitionDropsAtSwitch pins a partitioned port at the fabric level:
// frames to or from it vanish and are counted, loopback still delivers,
// and reconnecting the port resumes delivery.
func TestPartitionDropsAtSwitch(t *testing.T) {
	fab, _ := New(Config{Ports: 3, Rate: IB4xQDR, TimeScale: 0.001})
	var got [3]chan int // the source of each frame a port receives
	for p := range got {
		got[p] = make(chan int, 8)
		fab.RegisterSink(p, func(m *Message) { got[p] <- m.Src })
	}
	fab.Start()
	defer fab.Stop()
	recv := func(port, want int) {
		t.Helper()
		select {
		case src := <-got[port]:
			if src != want {
				t.Fatalf("port %d received a frame from %d, want %d", port, src, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("port %d: no frame from %d", port, want)
		}
	}

	fab.SetPartitioned(2, true)
	if !fab.Partitioned(2) || fab.Partitioned(0) {
		t.Fatal("Partitioned does not report the cut port")
	}
	fab.Send(&Message{Src: 0, Dst: 2, Size: 100}) // to the cut port
	fab.Send(&Message{Src: 2, Dst: 0, Size: 100}) // from it
	fab.Send(&Message{Src: 2, Dst: 2, Size: 100}) // loopback never reaches the switch
	fab.Send(&Message{Src: 0, Dst: 1, Size: 100}) // between connected ports
	recv(2, 2)
	recv(1, 0)
	for deadline := time.Now().Add(5 * time.Second); fab.MessagesDropped() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d frames, want 2", fab.MessagesDropped())
		}
	}
	time.Sleep(10 * time.Millisecond) // many latencies: a dropped frame would have arrived
	for p := range got {
		if n := len(got[p]); n != 0 {
			t.Fatalf("port %d received %d frames across the partition", p, n)
		}
	}

	fab.SetPartitioned(2, false)
	fab.Send(&Message{Src: 0, Dst: 2, Size: 100})
	fab.Send(&Message{Src: 2, Dst: 0, Size: 100})
	recv(2, 0)
	recv(0, 2)
	if n := fab.MessagesDropped(); n != 2 {
		t.Fatalf("dropped %d frames after reconnecting, want 2", n)
	}
	if n := fab.MessagesDelivered(); n != 4 {
		t.Fatalf("delivered %d frames, want 4", n)
	}
}

// clock drives a fabric's link model on a fixed clock: Send's steps
// without its waits, and a delivery goroutine's without the sinks.
type clock struct {
	t     *testing.T
	fab   *Fabric
	seq   map[*Message]int
	trips map[*Message]trip
	due   map[int]time.Duration // each port's last due instant
}

// send puts a frame of size bytes from src to dst on the wire at at.
func (c *clock) send(src, dst int, size, at time.Duration) *Message {
	m := &Message{Src: src, Dst: dst, Size: int(size)}
	c.fab.ports[dst].room <- struct{}{}
	c.seq[m] = c.fab.enqueue(m, at)
	c.run(at)
	return m
}

// run books what has reached the switch by at and empties the delay
// lines, checking that no port's due instants decrease.
func (c *clock) run(at time.Duration) {
	c.fab.advance(at)
	for p := range c.fab.ports {
		for len(c.fab.ports[p].line) > 0 {
			tr := <-c.fab.ports[p].line
			<-c.fab.ports[p].room
			if tr.due < c.due[p] {
				c.t.Fatalf("port %d: due instant went back %v", p, c.due[p]-tr.due)
			}
			c.due[p], c.trips[tr.m] = tr.due, tr
		}
	}
}

// trip returns m's booked trip.
func (c *clock) trip(m *Message) trip {
	c.t.Helper()
	tr, ok := c.trips[m]
	if !ok {
		c.t.Fatalf("frame %d→%d not booked", m.Src, m.Dst)
	}
	return tr
}

// fits returns when m fits in its sender's FIFO, if that is known.
func (c *clock) fits(m *Message) (time.Duration, bool) {
	return c.fab.ports[m.Src].fits(c.seq[m])
}

// TestLinkArithmetic checks the link model on a fixed clock: each case
// reads the instants enqueue and advance compute. At 1 GB/s and time
// scale 1 a frame of n bytes paces for n ns. Every case also checks that
// a port's due instants never decrease.
func TestLinkArithmetic(t *testing.T) {
	const ms = time.Millisecond
	const now = time.Second // every link has been idle for longer than burst
	for _, tc := range []struct {
		name  string
		check func(t *testing.T, c *clock, lat time.Duration)
	}{
		{"back-to-back frames pace end to end", func(t *testing.T, c *clock, _ time.Duration) {
			var q []*Message
			for i := 0; i < 4; i++ {
				q = append(q, c.send(0, 1, 4*ms, now))
			}
			c.run(now + time.Second)
			for i := 1; i < len(q); i++ {
				tr, prev := c.trip(q[i]), c.trip(q[i-1])
				if tr.egress-prev.egress != 4*ms || tr.ingress-prev.ingress != 4*ms {
					t.Fatalf("frame %d: egress +%v, ingress +%v after the one before; want +4ms on both links",
						i, tr.egress-prev.egress, tr.ingress-prev.ingress)
				}
			}
		}},
		{"an idle link back-dates by at most burst", func(t *testing.T, c *clock, _ time.Duration) {
			for _, at := range []time.Duration{now, now + time.Second} {
				tr := c.trip(c.send(0, 1, ms, at))
				if want := at - burst + ms; tr.egress != want || tr.ingress != want {
					t.Fatalf("frame sent at %v: egress %v, ingress %v; want %v on both", at, tr.egress, tr.ingress, want)
				}
			}
		}},
		{"no frame is due before the downlink takes it plus one latency", func(t *testing.T, c *clock, lat time.Duration) {
			small := c.trip(c.send(0, 1, 16, now)) // back-dated: its pacing ended before it was sent
			if small.taken != now || small.due != now+lat {
				t.Fatalf("small frame taken %v, due %v after Send; want 0 and one latency (%v)",
					small.taken-now, small.due-now, lat)
			}
			m := c.send(2, 3, 10*ms, now) // its pacing ends after the downlink took it
			c.run(now + time.Second)
			if big := c.trip(m); big.due != big.ingress+lat || big.ingress <= big.taken {
				t.Fatalf("big frame taken %v, paced %v, due %v after Send; want due one latency after pacing",
					big.taken-now, big.ingress-now, big.due-now)
			}
		}},
		{"the downlink takes frames in the order they reach the switch", func(t *testing.T, c *clock, lat time.Duration) {
			// Port 0's frame to port 1 queues behind 44 ms of uplink; port
			// 3's, sent later from an idle uplink, reaches the switch first.
			c.send(0, 2, 50*ms, now)
			queued := c.send(0, 1, 16, now)
			late := c.trip(c.send(3, 1, 16, now+ms))
			if late.taken != now+ms || late.due != now+ms+lat {
				t.Fatalf("frame reaching an idle downlink taken %v, due %v after Send; want at once and one latency later",
					late.taken-now-ms, late.due-now-ms)
			}
			if next := c.trip(c.send(3, 4, 16, now+ms)); next.left != now+ms {
				t.Fatalf("its sender's next frame left the FIFO %v after Send; want at once", next.left-now-ms)
			}
			c.run(now + time.Second)
			if tr := c.trip(queued); tr.left != now+44*ms || tr.taken != tr.reached {
				t.Fatalf("queued frame left the FIFO %v after Send and was taken %v after it reached the switch; want 44ms and at once",
					tr.left-now, tr.taken-tr.reached)
			}
		}},
		{"a frame finding the buffer full waits for a credit and holds up its FIFO", func(t *testing.T, c *clock, _ time.Duration) {
			// Port 1's frame reaches the switch 14 ms on (20 ms, back-dated
			// by burst) and holds port 0's downlink until 28 ms. The four
			// frames behind it fill port 0's buffer; the fifth waits.
			head := c.send(1, 0, 20*ms, now)
			c.run(now + 15*ms)
			var q []trip
			for src := 2; src <= 5; src++ {
				q = append(q, c.trip(c.send(src, 0, 16, now+15*ms)))
			}
			for i, tr := range q {
				if tr.entered != now+15*ms {
					t.Fatalf("frame %d entered the buffer %v after Send; want at once", i+1, tr.entered-now-15*ms)
				}
			}
			starved := c.trip(c.send(6, 0, 16, now+15*ms))
			if freed := c.trip(head).ingress; starved.entered != q[0].taken || starved.entered != freed {
				t.Fatalf("fifth frame entered the buffer %v after Send; want when the first one was taken (%v)",
					starved.entered-now-15*ms, q[0].taken-now-15*ms)
			}
			// Head-of-line blocking: the sender's next frame, to an idle
			// port, leaves the FIFO only once the starved head has a credit.
			next := c.send(6, 7, 16, now+15*ms)
			c.run(now + time.Second)
			if tr := c.trip(next); tr.left != starved.entered {
				t.Fatalf("frame behind a starved head left the FIFO %v after Send; want %v",
					tr.left-now-15*ms, starved.entered-now-15*ms)
			}
		}},
		{"a Send finding 64 frames queued waits for FIFO room", func(t *testing.T, c *clock, _ time.Duration) {
			head := c.send(0, 1, 100*ms, now) // occupies the uplink until 94 ms
			q := []*Message{c.send(0, 2, 10*ms, now)}
			for i := 1; i <= egressQueue; i++ {
				q = append(q, c.send(0, 3+i%5, 16, now))
			}
			for i, m := range q[:egressQueue] {
				if at, known := c.fits(m); !known || at > now {
					t.Fatalf("queued frame %d fits %v after Send (known %v); want at once", i+1, at-now, known)
				}
			}
			last := q[egressQueue]
			if at, known := c.fits(last); known || at != now+94*ms {
				t.Fatalf("frame %d: fits known %v, look again %v after Send; want unknown until the head reaches the switch at 94ms",
					egressQueue+2, known, at-now)
			}
			c.run(now + 94*ms)
			if at, known := c.fits(last); !known || at != c.trip(head).entered {
				t.Fatalf("frame %d fits %v after Send (known %v); want when the first queued frame left (%v)",
					egressQueue+2, at-now, known, c.trip(head).entered-now)
			}
		}},
		{"a partition is looked at when a frame reaches the switch", func(t *testing.T, c *clock, _ time.Duration) {
			c.send(0, 1, 10*ms, now) // reaches the switch at 4 ms
			cut := c.send(0, 1, 10*ms, now)
			after := c.send(0, 1, 16, now)
			c.run(now + 4*ms)
			c.fab.SetPartitioned(1, true) // while cut waits on the uplink
			c.run(now + 14*ms)
			c.fab.SetPartitioned(1, false)
			c.run(now + time.Second)
			if _, ok := c.trips[cut]; ok || c.fab.MessagesDropped() != 1 {
				t.Fatalf("frame reaching a cut port: booked %v, dropped %d; want dropped", ok, c.fab.MessagesDropped())
			}
			if tr := c.trip(after); tr.left != now+14*ms {
				t.Fatalf("frame after a drop left the FIFO %v after Send; want when the drop's pacing ended (14ms)", tr.left-now)
			}
			// Sent while port 2 is cut, it reaches the switch after the
			// partition healed, and gets through.
			c.fab.SetPartitioned(2, true)
			healed := c.send(3, 2, 10*ms, now)
			c.fab.SetPartitioned(2, false)
			c.run(now + time.Second)
			c.trip(healed)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, _ := New(Config{Ports: 8, Rate: 1e9, TimeScale: 1})
			c := &clock{t: t, fab: fab, seq: map[*Message]int{}, trips: map[*Message]trip{}, due: map[int]time.Duration{}}
			tc.check(t, c, fab.lat)
		})
	}
}
