package competitors

import (
	"testing"

	"hsqp/internal/leakcheck"
)

// TestMain gates the package's tests behind the goroutine leak check:
// they start engine, fabric or cluster goroutines, and each test must
// stop what it starts.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
