//go:build race

package fabric

// raceEnabled: the race detector slows every goroutine hand-off, so the
// wall-clock bounds of the wire-model tests are skipped under it.
const raceEnabled = true
