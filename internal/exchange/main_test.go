package exchange

import (
	"testing"

	"hsqp/internal/leakcheck"
)

// TestMain gates the package's tests behind the goroutine leak check: a
// control round runs as a pipeline and starts no goroutine of its own, and
// a cancelled query must leave none behind.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
