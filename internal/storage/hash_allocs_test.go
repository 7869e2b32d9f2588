//go:build !race

package storage

import (
	"math/rand"
	"testing"
)

// TestHashAllocs pins the hash kernels at zero heap allocations per call
// (the race detector's instrumentation allocates, hence the build tag).
// This is what `make allocs` and CI run by name.
func TestHashAllocs(t *testing.T) {
	b := hashTestBatch(rand.New(rand.NewSource(3)), 256)
	allKeys := []int{0, 1, 2, 3, 4, 5, 6, 7}
	vec := make([]uint32, b.Rows())
	var sink uint32
	for name, fn := range map[string]func(){
		"HashI64": func() { sink ^= HashI64(int64(sink)) },
		"HashStr": func() { sink ^= HashStr(b.Cols[4].Str[int(sink)%b.Rows()]) },
		"HashColValue": func() {
			for _, c := range b.Cols {
				sink ^= HashColValue(c, 7)
			}
		},
		"HashRow":  func() { sink ^= HashRow(b, allKeys, 11) },
		"HashRows": func() { vec = HashRows(b, allKeys, vec) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
