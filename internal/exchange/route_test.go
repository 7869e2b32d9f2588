package exchange

import (
	"testing"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/memory"
	"hsqp/internal/numa"
	"hsqp/internal/ser"
)

// drainLoopback releases everything a one-server exchange delivered.
func drainLoopback(t *testing.T, h *harness, ex int32) {
	t.Helper()
	recv := h.muxes[0].OpenExchange(0, ex, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		msg, done := recv.TryRecv(0)
		if msg != nil {
			msg.Release()
			continue
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("exchange did not drain")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRouteBatchNUMAAccounting: routing a batch accounts the bytes it
// serializes exactly as a Charge per encoded row would — the sum of the
// row sizes, as local bytes when the open message is homed on the worker's
// socket, as remote bytes when it is not — and a remote write still waits
// out QPILatency once per row (Figure 9's modelled time), not once per
// batch.
func TestRouteBatchNUMAAccounting(t *testing.T) {
	const n = 60
	b := rows(n, 0)
	codec := ser.NewCodec(b.Schema)
	wantBytes := uint64(0)
	for i := 0; i < n; i++ {
		wantBytes += uint64(codec.RowSize(b, i))
	}
	const latency = 200 * time.Microsecond
	for _, c := range []struct {
		name                  string
		policy                numa.AllocPolicy
		worker                engine.Worker
		wantLocal, wantRemote uint64
		atLeast               time.Duration
	}{
		{"socket-0 worker, NUMA-local buffers", numa.AllocLocal, engine.Worker{Node: 0}, wantBytes, 0, 0},
		{"socket-1 worker, NUMA-local buffers", numa.AllocLocal, engine.Worker{Node: 1}, wantBytes, 0, 0},
		{"socket-0 worker, buffers on socket 0", numa.AllocSingleSocket, engine.Worker{Node: 0}, wantBytes, 0, 0},
		{"socket-1 worker, buffers on socket 0", numa.AllocSingleSocket, engine.Worker{Node: 1}, 0, wantBytes, n * latency},
		{"socket-0 worker, interleaved buffers", numa.AllocInterleaved, engine.Worker{Node: 0}, 0, wantBytes, n * latency},
	} {
		h := newHarness(t, 1)
		topo := numa.TwoSocket()
		topo.QPILatency = latency
		send := NewSend(SendConfig{
			Mux: h.muxes[0], Pool: memory.NewPool(topo, c.policy, 4096, nil), ExID: 1, Mode: ModePartition,
			Servers: 1, Keys: []int{0}, Codec: codec, NumWorkers: 1, Topo: topo, Scale: 1,
		})
		w := c.worker
		t0 := time.Now()
		send.Consume(&w, b)
		elapsed := time.Since(t0)
		local, remote := topo.Stats()
		if local != c.wantLocal || remote != c.wantRemote {
			t.Errorf("%s: %d local / %d remote bytes, want %d / %d", c.name, local, remote, c.wantLocal, c.wantRemote)
		}
		if elapsed < c.atLeast {
			t.Errorf("%s: %d remote rows took %v, less than %d × QPILatency = %v", c.name, n, elapsed, n, c.atLeast)
		}
		if err := send.FinalizeOn(&w); err != nil {
			t.Fatal(err)
		}
		drainLoopback(t, h, 1)
	}
}

// TestSourceDecodesIntoExactColumns: a received message becomes a batch
// whose columns were allocated once, at the message's row count.
func TestSourceDecodesIntoExactColumns(t *testing.T) {
	h := newHarness(t, 1)
	b := rows(100, 0)
	codec := ser.NewCodec(b.Schema)
	recv := h.muxes[0].OpenExchange(0, 1, 1)
	send := NewSend(SendConfig{
		Mux: h.muxes[0], Pool: h.pools[0], ExID: 1, Mode: ModePartition,
		Servers: 1, Keys: []int{0}, Codec: codec, NumWorkers: 1,
	})
	w := &engine.Worker{}
	send.Consume(w, b)
	if err := send.FinalizeOn(w); err != nil {
		t.Fatal(err)
	}
	src := &Source{Recv: recv, Codec: codec}
	total := 0
	// Local sends deliver synchronously: every message is queued already.
	for got, done := src.Poll(w); !done; got, done = src.Poll(w) {
		total += got.Rows()
		if got.Room() != 0 {
			t.Fatalf("a %d-row message decoded into columns with room for %d more", got.Rows(), got.Room())
		}
	}
	if err := src.Err(); err != nil || total != b.Rows() {
		t.Fatalf("received %d of %d rows, err %v", total, b.Rows(), err)
	}
}
