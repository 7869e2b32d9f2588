//go:build !race

package exchange

import (
	"testing"

	"hsqp/internal/engine"
	"hsqp/internal/memory"
	"hsqp/internal/numa"
	"hsqp/internal/ser"
)

// TestRouteBatchAllocs: hashing, partitioning, serializing and NUMA
// accounting allocate nothing per row. The send is warm — the worker's
// hash vector and the open message of every destination exist — and the
// batches are small enough that no message fills up, so the pool's
// per-message cost stays out of the count.
func TestRouteBatchAllocs(t *testing.T) {
	b := rows(64, 0)
	topo := numa.TwoSocket()
	for _, mode := range []Mode{ModePartition, ModeClassicPartition, ModeBroadcast, ModeGather} {
		send := NewSend(SendConfig{
			Pool: memory.NewPool(topo, numa.AllocLocal, 0, nil), ExID: 1, Mode: mode,
			Servers: 3, WorkersPerServer: 2, Keys: []int{0, 1}, Codec: ser.NewCodec(b.Schema),
			NumWorkers: 1, Topo: topo, Scale: 1,
		})
		w := &engine.Worker{}
		st := &send.workers[0]
		send.routeBatch(st, w, b)
		if n := testing.AllocsPerRun(20, func() { send.routeBatch(st, w, b) }); n != 0 {
			t.Errorf("%v: routeBatch allocates %v times per %d-row batch, want 0", mode, n, b.Rows())
		}
		releaseOpen(st)
	}
}

// releaseOpen returns a worker's open messages without sending them.
func releaseOpen(st *workerSendState) {
	for unit, msg := range st.open {
		if msg != nil {
			msg.Release()
			st.open[unit] = nil
		}
	}
}
