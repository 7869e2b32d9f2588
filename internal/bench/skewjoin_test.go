package bench

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// encodeResult serializes a result batch row by row into one comparable
// byte string (the wire codec is deterministic for a fixed schema).
func encodeResult(b *storage.Batch) []byte {
	c := ser.NewCodec(b.Schema)
	var out []byte
	for i := 0; i < b.Rows(); i++ {
		out = c.EncodeRow(b, i, out)
	}
	return out
}

// TestSkewAdaptiveConformance is the acceptance check for the adaptive
// skew subsystem on the examples/skew workload (Zipf 1.1, 3 servers):
// the adaptive strategy must produce byte-identical results to both the
// static-partition and classic engines, and (without the race detector
// distorting the compute/network balance) beat static hash partitioning
// by at least 20% wall time.
func TestSkewAdaptiveConformance(t *testing.T) {
	f := SkewedJoin{Rows: 200_000, Transport: cluster.TCPGbE, Runs: 2}
	f.defaults()
	if f.Zipf != 1.1 || f.Servers != 3 {
		t.Fatalf("acceptance workload drifted: zipf %v servers %d", f.Zipf, f.Servers)
	}
	build, probe := buildSkewTables(f.Rows, f.Keys, f.Zipf)

	run := func() (times map[string]time.Duration, err error) {
		times = map[string]time.Duration{}
		runs, err := f.runEngines(build, probe)
		if err != nil {
			return nil, err
		}
		var want []byte
		for i, eng := range skewEngines {
			res, stats := runs[i].res, runs[i].stats
			if res.Rows() == 0 {
				return nil, fmt.Errorf("%s: empty result", eng.name)
			}
			got := encodeResult(res)
			if eng.name == "static" {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s result differs from static (%d vs %d bytes)", eng.name, len(got), len(want))
			}
			times[eng.name] = stats.Duration
		}
		return times, nil
	}

	times, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Log("race detector enabled: skipping the wall-time assertion")
		return
	}
	// Wall-time acceptance with one retry: the figure is stable (the win
	// is ~1.5x) but CI machines stall.
	for attempt := 0; ; attempt++ {
		adaptive, static := times["adaptive"], times["static"]
		t.Logf("attempt %d: static %v, classic %v, adaptive %v (%.2fx)",
			attempt, static, times["classic"], adaptive, static.Seconds()/adaptive.Seconds())
		if adaptive <= static*8/10 {
			return
		}
		if attempt >= 1 {
			t.Fatalf("adaptive %v is not >=20%% faster than static %v", adaptive, static)
		}
		if times, err = run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSkewSweepSmoke runs a reduced sweep end-to-end: every (zipf, engine)
// cell must execute without error and produce positive runtimes.
func TestSkewSweepSmoke(t *testing.T) {
	f := SkewSweep{
		SkewedJoin: SkewedJoin{Rows: 30_000, Keys: 3_000, Runs: 1},
		ZipfList:   []float64{0, 1.1},
	}
	pts, err := f.Run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*len(skewEngines) {
		t.Fatalf("got %d points, want %d", len(pts), 2*len(skewEngines))
	}
	for _, p := range pts {
		if p.Time <= 0 {
			t.Fatalf("%s at z=%.1f: non-positive time", p.Engine, p.Zipf)
		}
	}
}
