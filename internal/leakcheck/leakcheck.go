// Package leakcheck is the tests' one goroutine ledger: a leaked goroutine
// is usually a missed Close/Wake on a shutdown path (mux network loops,
// worker pools, queued session waiters). A package checks at exit with
// func TestMain(m *testing.M) { leakcheck.Main(m) }: after the tests pass,
// every goroutine beyond the runtime's and testing framework's own is a
// leak, once a grace period for goroutines mid-exit has run out. A single
// test diffs this module's goroutines by function: Snapshot before the
// code under test, Grown after it. Both settle before they answer.
package leakcheck

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// grace bounds the exit check's, a snapshot's and a diff's retries.
const grace = 5 * time.Second

// ignoredSubstrings mark goroutines that are not leaks: the test
// framework, runtime housekeeping, and a concurrent Check.
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
	if code := m.Run(); code != 0 {
		os.Exit(code)
	}
	if err := Check(grace); err != nil {
		fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
		os.Exit(1)
	}
}

// Check reports an error if goroutines beyond the allowlist are still
// running; it retries until timeout so shutdown in progress can finish.
func Check(timeout time.Duration) error {
	var leaked []string
	if retry(timeout, func() bool {
		leaked = nil
		for _, g := range dump()[1:] { // the first stack is this goroutine
			if !slices.ContainsFunc(ignoredSubstrings, func(pat string) bool { return strings.Contains(g.stack, pat) }) {
				leaked = append(leaked, g.stack)
			}
		}
		return len(leaked) == 0
	}) {
		return nil
	}
	return fmt.Errorf("%d goroutine(s) still running after %v grace:\n\n%s",
		len(leaked), timeout, strings.Join(leaked, "\n\n"))
}

// retry calls done every 10 ms until it reports true or timeout passes,
// and returns what done reported last.
func retry(timeout time.Duration, done func() bool) bool {
	for deadline := time.Now().Add(timeout); !done(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// goroutine is one goroutine of a dump: its stack, the function it runs
// (its outermost non-runtime frame) and the one whose go statement started it.
type goroutine struct{ stack, entry, creator string }

// dump reads every goroutine's stack; the caller's comes first.
func dump() []goroutine {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		g := goroutine{stack: stack}
		for _, line := range strings.Split(stack, "\n")[1:] { // [0] is "goroutine N [state]:"
			if creator, ok := strings.CutPrefix(line, "created by "); ok {
				g.creator, _, _ = strings.Cut(creator, " in goroutine")
				break
			}
			if fn := line[:max(strings.LastIndex(line, "("), 0)]; fn != "" && !strings.HasPrefix(line, "\t") && !strings.HasPrefix(fn, "runtime.") {
				g.entry = fn
			}
		}
		out = append(out, g)
	}
	return out
}

// Counts is how many of this module's goroutines (entry or creator under
// hsqp/) run each function: not by creator, as inlining renames closures.
type Counts map[string]int

// String renders one "N × function" line per function, sorted.
func (c Counts) String() string {
	var b strings.Builder
	for _, fn := range slices.Sorted(maps.Keys(c)) {
		fmt.Fprintf(&b, "\t%d × %s\n", c[fn], fn)
	}
	return b.String()
}

func count() Counts {
	c := Counts{}
	for _, g := range dump() {
		if strings.HasPrefix(g.entry, "hsqp/") || strings.HasPrefix(g.creator, "hsqp/") {
			c[g.entry]++
		}
	}
	return c
}

// Snapshot counts the module's goroutines once they have settled: no
// goroutine still shows the compiler's wrapper (gowrap) it starts in, and
// two reads 10 ms apart agree. After 5 s it returns the last read.
func Snapshot() (c Counts) {
	var prev Counts
	retry(grace, func() bool {
		prev, c = c, count()
		return maps.Equal(prev, c) && !strings.Contains(c.String(), ".gowrap")
	})
	return c
}

// Grown returns the functions whose goroutine count grew since before, by
// how much; a goroutine that has exited since is no change. It retries for
// up to 5 s until the growth is exactly want (nil: nothing grew), so a
// goroutine still starting or exiting is not miscounted.
func Grown(before, want Counts) (got Counts) {
	retry(grace, func() bool {
		got = Counts{}
		for fn, n := range count() {
			if n > before[fn] {
				got[fn] = n - before[fn]
			}
		}
		return maps.Equal(got, want)
	})
	return got
}
