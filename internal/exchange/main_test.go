package exchange

import (
	"testing"

	"hsqp/internal/leakcheck"
)

// TestMain gates the package's tests behind the goroutine leak check: a
// coordinator's gather goroutine must end with its round, also when the
// query is cancelled.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
