package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// DefaultHeartbeatInterval/Timeout tune the failure detector. The timeout
// is deliberately generous: probes share the simulated links with full-size
// exchange messages, so a probe can wait out a deep head-of-line backlog on
// a loaded cluster without the peer being dead.
const (
	DefaultHeartbeatInterval = 10 * time.Millisecond
	DefaultHeartbeatTimeout  = time.Second
)

// detector is a mesh's failure detector: one goroutine per live mesh,
// started by startMesh and stopped before the mesh is torn down. A crash is
// caught by the failing server's own run error, but a hung or partitioned
// server produces no error — only silence — and the detector is what turns
// that silence into an abort.
//
// The rule is "any frame from a peer is a liveness proof; probe only on
// silence". Each heartbeat interval the detector samples, without
// blocking, how many frames the coordinator's multiplexer has heard from
// every peer. A scheduled cluster barriers with each peer once per round,
// so its counters advance for free and nothing extra crosses the wire;
// only a peer that said nothing for a whole heartbeat timeout (eager mode,
// an idle link, or an actual fault) is sent an explicit probe, whose echo
// is just another frame, and only a peer still silent a whole timeout
// after that probe is declared lost. Query attempts do not probe: they
// attach their abort to tripped with context.AfterFunc.
type detector struct {
	nodes    []*Node // the mesh's membership; nodes[0] coordinates and probes
	interval time.Duration
	timeout  time.Duration
	stopCh   chan struct{}
	done     chan struct{}
	// tripped is cancelled, with the verdict as its cause, once the
	// suspects are fenced and every survivor was told they are down.
	tripped context.Context
	cancel  context.CancelCauseFunc

	mu       sync.Mutex
	suspects []*Node // declared lost: dead, frozen or unreachable
}

func (c *Cluster) newDetector(nodes []*Node) *detector {
	d := &detector{
		nodes:    nodes,
		interval: c.cfg.HeartbeatInterval,
		timeout:  c.cfg.HeartbeatTimeout,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	d.tripped, d.cancel = context.WithCancelCause(context.Background())
	if d.interval <= 0 {
		d.interval = DefaultHeartbeatInterval
	}
	if d.timeout <= 0 {
		d.timeout = DefaultHeartbeatTimeout
	}
	return d
}

// stop ends the detector and returns once its goroutine has exited. The
// goroutine never takes the membership lock, so stopping it under memMu is
// safe. Call it once, on the pointer swapped out of Cluster.det; nil (a
// single-server mesh, or already swapped out) has nothing to stop.
func (d *detector) stop() {
	if d == nil {
		return
	}
	close(d.stopCh)
	<-d.done
}

// verdict returns the servers the detector declared lost and whether they
// are a majority, in which case the coordinator is the isolated side.
func (d *detector) verdict() ([]*Node, bool) {
	if d == nil {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.suspects), len(d.suspects) > len(d.nodes)/2
}

// run is the detector goroutine. Suspicion needs an unanswered probe, not
// just elapsed time: after a stall of the whole process the clock has
// moved but no peer had a chance to speak, and the probe gives it one.
func (d *detector) run() {
	defer close(d.done)
	coord := d.nodes[0]
	type peer struct {
		heard  uint64
		since  time.Time // when heard last advanced, or the probe went out
		probed bool      // a probe has gone out since heard last advanced
	}
	peers := make([]peer, len(d.nodes))
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		var now time.Time
		select {
		case <-d.stopCh:
			return
		case now = <-ticker.C:
		}
		var down []*Node
		for i, node := range d.nodes {
			if !node.alive.Load() {
				down = append(down, node)
				continue
			}
			if i == 0 || !coord.alive.Load() {
				continue // no self-probe; a dead coordinator hears nobody
			}
			p := &peers[i]
			if h := coord.Mux.Heard(i); h != p.heard || p.since.IsZero() {
				*p = peer{heard: h, since: now}
				continue
			}
			if now.Sub(p.since) < d.timeout {
				continue
			}
			if p.probed {
				down = append(down, node)
				continue
			}
			coord.Mux.Probe(i)
			mDetectorProbes.Inc()
			p.probed, p.since = true, now
		}
		if len(down) > 0 {
			d.trip(down)
			return
		}
	}
}

// trip declares the given servers lost and, once they are fenced, cancels
// tripped, which aborts every attempt attached to it. The mesh is beyond
// repair from here — RunContext evicts the lost servers and rebuilds it,
// with a fresh detector — so run returns.
func (d *detector) trip(down []*Node) {
	mDetectorSuspicions.Add(uint64(len(down)))
	// Record the verdict before fencing: an attempt that fails because of
	// the fence must already find every suspect in lost().
	d.mu.Lock()
	d.suspects = down
	d.mu.Unlock()
	// Fence every suspect (STONITH): a hung or partitioned server may
	// still hold send queues full of traffic and workers blocked on
	// them; killing it unblocks everything it owns. Then tell every
	// survivor's multiplexer the peer is gone, so schedule barriers
	// with it complete instead of parking the survivors' network loops.
	for _, node := range down {
		node.kill()
	}
	for _, node := range d.nodes {
		if !node.alive.Load() {
			continue
		}
		for j, peer := range d.nodes {
			if !peer.alive.Load() {
				node.Mux.PeerDown(j)
			}
		}
	}
	d.cancel(fmt.Errorf("cluster: failure detector declared %d server(s) lost", len(down)))
}
