//go:build !race

package nic

import "testing"

// TestFrameAllocs pins a send plus its delivery, counted across all
// goroutines, at most one allocation per frame under both sheets: the frame
// and its socket buffer are pooled, and fabric.Message lives in the frame.
func TestFrameAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sheet Sheet
	}{
		{"rdma", RDMA()},
		{"tcp", TCP(TCPConfig{Mode: ModeEthernet, Offload: true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := newMesh(t, tc.sheet)
			data := testing.AllocsPerRun(200, func() {
				ms.ep0.Send(1, ms.message(64))
				(<-ms.got).Release()
			})
			inline := testing.AllocsPerRun(200, func() {
				ms.ep0.SendInline(1, 1)
				<-ms.tags
			})
			t.Logf("allocations per frame: data %.2f, inline %.2f", data, inline)
			if data > 1 || inline > 1 {
				t.Fatalf("allocations per frame: data %.2f, inline %.2f; want ≤ 1", data, inline)
			}
		})
	}
}
