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
	// 20 × 1 MB at a simulated 1 GB/s with scale 1 must take ≈20 ms wall,
	// give or take burst catch-up and scheduling.
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
