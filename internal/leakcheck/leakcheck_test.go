package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestCheckDetectsLeak: a goroutine started after a snapshot and still
// blocked is a leak to Check and, by its function, to Grown.
func TestCheckDetectsLeak(t *testing.T) {
	before := Snapshot()
	block, done := make(chan struct{}), make(chan struct{})
	go func() {
		<-block
		close(done)
	}()

	err := Check(50 * time.Millisecond)
	if err == nil {
		t.Fatal("Check passed despite a blocked goroutine")
	}
	if !strings.Contains(err.Error(), "leakcheck.TestCheckDetectsLeak") {
		t.Errorf("leak report does not name the leaking function:\n%v", err)
	}
	if got, fn := Grown(before, nil), "hsqp/internal/leakcheck.TestCheckDetectsLeak.func1"; got[fn] != 1 || len(got) != 1 {
		t.Errorf("Grown reported\n%swant 1 × %s", got, fn)
	}

	close(block)
	<-done
	if err := Check(5 * time.Second); err != nil {
		t.Errorf("Check still failing after the goroutine exited: %v", err)
	}
}

// TestCheckGraceAllowsExitInProgress: a goroutine that exits within the
// grace period is no leak to Check, nor to Grown.
func TestCheckGraceAllowsExitInProgress(t *testing.T) {
	before := Snapshot()
	go func() { time.Sleep(100 * time.Millisecond) }()
	if got := Grown(before, nil); len(got) != 0 {
		t.Errorf("Grown did not wait out a goroutine mid-exit:\n%s", got)
	}
	if err := Check(5 * time.Second); err != nil {
		t.Errorf("Check did not wait out a goroutine mid-exit: %v", err)
	}
}

// TestGrownIgnoresExitAfterSnapshot: a goroutine that was running at the
// snapshot and has exited since is no change, not −1 of one.
func TestGrownIgnoresExitAfterSnapshot(t *testing.T) {
	release := make(chan struct{})
	go func() { <-release }()
	const fn = "hsqp/internal/leakcheck.TestGrownIgnoresExitAfterSnapshot.func1"
	before := Snapshot()
	if before[fn] != 1 {
		t.Fatalf("the snapshot missed a running goroutine:\n%s", before)
	}
	close(release)
	retry(grace, func() bool { return count()[fn] == 0 }) // it has returned
	if got := Grown(before, nil); len(got) != 0 {
		t.Fatalf("a goroutine that exited after the snapshot was reported:\n%s", got)
	}
}
