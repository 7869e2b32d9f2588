// Package leakcheck fails a test binary whose goroutines outlive its
// tests. The serving tier (mux receive loops, exchange workers, queued
// session waiters, scheduler pools) owns many goroutines whose shutdown
// paths are exactly the code most likely to regress; a leaked goroutine
// in a test is usually a missed Close/Wake on one of those paths, and
// without a checker it stays invisible until a production drain hangs.
//
// Wire it in with one line:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The check snapshots all goroutine stacks after the tests pass, filters
// the runtime's and testing framework's own goroutines, and retries for
// a grace period so goroutines that are mid-exit (closed channels
// propagating, deferred Releases running) can finish before a diff is
// declared a leak.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignoredSubstrings mark goroutines that are not leaks: the test
// framework, runtime housekeeping, and this package's own check.
var ignoredSubstrings = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runFuzzing(",
	"testing.runFuzzTests(",
	"runtime.goexit",
	"runtime.MHeap_Scavenger",
	"runtime.ensureSigM",
	"runtime/trace.Start",
	"signal.signal_recv",
	"signal.loop",
	"os/signal.signal_recv",
	"leakcheck.interesting",
	"leakcheck.Check",
	"created by runtime.gc",
	"created by runtime/trace",
	"GC sweep wait",
	"GC scavenge wait",
	"force gc (idle)",
	"finalizer wait",
}

// Main runs the package's tests and then the leak check; it exits the
// process with a failure status if tests failed or goroutines leaked.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := Check(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check reports an error if goroutines beyond the allowlist are still
// running; it retries until timeout so shutdown in progress can finish.
func Check(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var leaked []string
	for {
		leaked = interesting()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutine(s) still running after %v grace:\n\n%s",
		len(leaked), timeout, strings.Join(leaked, "\n\n"))
}

// interesting returns the stacks of goroutines that are neither the
// caller nor runtime/testing housekeeping.
func interesting() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the first stack is this goroutine
		}
		ignore := false
		for _, pat := range ignoredSubstrings {
			if strings.Contains(g, pat) {
				ignore = true
				break
			}
		}
		if !ignore {
			out = append(out, g)
		}
	}
	return out
}
