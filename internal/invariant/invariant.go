// Package invariant is the single sanctioned way for the serving
// packages (engine, exchange, mux, serve) to raise internal-invariant
// violations. The nopanic analyzer bans bare panic() there: a panic on a
// mux receive goroutine or a serve connection handler has no recover
// frame and kills the daemon with every in-flight query on it.
//
// Failf still panics — an invariant violation is not a recoverable
// condition — but with a typed *Violation value, so the recover frames
// that do exist (the scheduler's morsel loop, serve's per-request
// recovery) can tell a checked engine invariant from an arbitrary
// programmer error, and so the codebase has exactly one audited raise
// site.
package invariant

import "fmt"

// Violation is the typed panic value carrying a formatted description of
// the broken invariant.
type Violation struct {
	Msg string
}

func (v *Violation) Error() string { return v.Msg }

// Failf reports a broken internal invariant and never returns. The
// package sits outside nopanic's scope, making this the one place the
// serving tier may panic from.
func Failf(format string, args ...any) {
	panic(&Violation{Msg: fmt.Sprintf(format, args...)})
}
