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
