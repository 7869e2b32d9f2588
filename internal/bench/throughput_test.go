package bench

import (
	"bytes"
	"io"
	"testing"
)

// TestThroughputConcurrentSpeedup is the acceptance gate of the
// multi-query engine: 8 concurrent TPC-H Q12 streams on the simulated
// 3-server cluster must (a) produce byte-identical (canonical row order)
// per-query results to the same 8 queries run back-to-back, and (b) —
// without the race detector distorting the compute/network balance —
// achieve at least 1.5× the queries/sec of the serial baseline.
func TestThroughputConcurrentSpeedup(t *testing.T) {
	f := Throughput{}
	f.defaults()
	if f.Streams != 8 || f.Servers != 3 || len(f.Queries) != 1 || f.Queries[0] != 12 {
		t.Fatalf("acceptance workload drifted: %+v", f)
	}

	run := func() (ThroughputResult, error) {
		res, err := Throughput{}.Run(io.Discard)
		if err != nil {
			return res, err
		}
		for i := range res.SerialResults {
			if len(res.SerialResults[i]) == 0 {
				t.Fatalf("query %d: empty serial result", i)
			}
			if !bytes.Equal(res.SerialResults[i], res.ConcurrentResults[i]) {
				t.Fatalf("query %d: concurrent result differs from serial (%d vs %d bytes)",
					i, len(res.ConcurrentResults[i]), len(res.SerialResults[i]))
			}
		}
		return res, nil
	}

	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Log("race detector enabled: skipping the throughput assertion")
		return
	}
	// Timing acceptance with one retry: the figure is stable (~1.9x) but
	// CI machines stall.
	for attempt := 0; ; attempt++ {
		t.Logf("attempt %d: serial %v (%.1f qps, link util %.3f), concurrent %v (%.1f qps, link util %.3f), speedup %.2fx",
			attempt, res.SerialWall, res.SerialQPS, res.SerialLinkUtil,
			res.ConcurrentWall, res.ConcurrentQPS, res.ConcurrentLinkUtil, res.Speedup)
		if res.Speedup >= 1.5 {
			return
		}
		if attempt >= 1 {
			t.Fatalf("concurrent throughput %.2fx of serial, want >= 1.5x", res.Speedup)
		}
		if res, err = run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestThroughputMixedStreams runs the Q1/Q12 mix end to end (the smoke
// configuration CI benches): every stream must complete with a conforming
// result.
func TestThroughputMixedStreams(t *testing.T) {
	res, err := Throughput{Streams: 4, Queries: []int{1, 12}, SF: 0.005}.Run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 4 {
		t.Fatalf("ran %d queries, want 4", res.Queries)
	}
	for i := range res.SerialResults {
		if !bytes.Equal(res.SerialResults[i], res.ConcurrentResults[i]) {
			t.Fatalf("query %d: concurrent result differs from serial", i)
		}
	}
	if res.ConcurrentQPS <= 0 || res.SerialQPS <= 0 {
		t.Fatalf("non-positive qps: %+v", res)
	}
}
