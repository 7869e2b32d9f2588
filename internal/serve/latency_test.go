package serve

import (
	"testing"
	"time"
)

// TestQoSWindowRotation pins the recent-latency ring semantics: the
// percentile window holds exactly the latWindow most recent observations,
// so old outliers age out after one full rotation and partially rotated
// windows mix old and new samples at their true ranks.
func TestQoSWindowRotation(t *testing.T) {
	q := newTenantLatencies(nil)
	slow, fast := 100*time.Millisecond, 1*time.Millisecond

	// Fill the window entirely with slow observations.
	for i := 0; i < latWindow; i++ {
		q.Observe("a", slow, slow)
	}
	s := q.Snapshot()[0]
	if s.QueueP50 != slow || s.QueueP99 != slow {
		t.Fatalf("full slow window: p50=%v p99=%v, want %v", s.QueueP50, s.QueueP99, slow)
	}

	// Overwrite just over half the ring with fast observations: the
	// median flips to fast, but the p99 still sees the surviving slow
	// tail (1024-600=424 slow samples remain, rank 1014 > 600).
	const half = latWindow/2 + 88 // 600
	for i := 0; i < half; i++ {
		q.Observe("a", fast, fast)
	}
	s = q.Snapshot()[0]
	if s.QueueP50 != fast {
		t.Fatalf("half-rotated p50=%v, want %v (window not overwriting in place)", s.QueueP50, fast)
	}
	if s.QueueP99 != slow {
		t.Fatalf("half-rotated p99=%v, want %v (old tail aged out too early)", s.QueueP99, slow)
	}

	// Complete the rotation: every slow sample has been overwritten, so
	// the p99 collapses to fast — outliers do not haunt the window
	// forever.
	for i := half; i < latWindow; i++ {
		q.Observe("a", fast, fast)
	}
	s = q.Snapshot()[0]
	if s.QueueP99 != fast || s.TotalP99 != fast {
		t.Fatalf("fully rotated p99=%v/%v, want %v", s.QueueP99, s.TotalP99, fast)
	}
	if want := uint64(2 * latWindow); s.Served != want {
		t.Fatalf("served=%d, want %d (served must count beyond the window)", s.Served, want)
	}
}

// TestQoSObserveQuantiles: latency accounting reports nearest-rank p50/p99
// per tenant.
func TestQoSObserveQuantiles(t *testing.T) {
	q := newTenantLatencies(map[string]int{"a": 2})
	for i := 1; i <= 100; i++ {
		q.Observe("a", time.Duration(i)*time.Millisecond, time.Duration(2*i)*time.Millisecond)
	}
	snap := q.Snapshot()
	if len(snap) != 1 || snap[0].Tenant != "a" {
		t.Fatalf("snapshot: %+v", snap)
	}
	s := snap[0]
	if s.Served != 100 {
		t.Fatalf("served=%d, want 100", s.Served)
	}
	if s.QueueP50 != 50*time.Millisecond || s.QueueP99 != 99*time.Millisecond {
		t.Fatalf("queue p50=%v p99=%v, want 50ms/99ms", s.QueueP50, s.QueueP99)
	}
	if s.TotalP50 != 100*time.Millisecond || s.TotalP99 != 198*time.Millisecond {
		t.Fatalf("total p50=%v p99=%v, want 100ms/198ms", s.TotalP50, s.TotalP99)
	}
}
