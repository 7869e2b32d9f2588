// Adaptive skew handling for distributed joins (Flow-Join style; cf.
// Rödiger et al., "Flow-Join: Adaptive Skew Handling for Distributed
// Joins over High-Speed Networks").
//
// Hash-partitioning a Zipf-distributed join key sends every tuple of a
// heavy key to one owning server, which becomes the straggler the whole
// query waits for (§3.1). The SkewCoord detects heavy keys online: the
// probe-side send samples the key hashes of its first morsels through a
// Space-Saving sketch, every server broadcasts its local sketch over a
// dedicated control exchange (one Retain-shared buffer), and each server
// merges all n sketches with the same deterministic function — so the
// cluster agrees on one global hot-key set without a coordinator round
// trip. Tuples then switch routes: hot build keys are replicated to all
// servers (selective broadcast), hot probe tuples stay on their origin
// server, and cold keys keep hash partitioning. Each probe tuple is still
// processed exactly once and each build tuple lands exactly once per
// receiving server, so join results are identical to the static plan.
package exchange

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hsqp/internal/engine"
	"hsqp/internal/invariant"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/sketch"
	"hsqp/internal/storage"
)

// Skew-handling defaults.
const (
	// DefaultSampleBudget is how many probe tuples a server samples before
	// publishing its sketch — two default morsels: enough for a stable
	// top-k estimate, early enough that almost the whole shuffle is routed
	// adaptively.
	DefaultSampleBudget = 2 * 16384
	// DefaultHotFraction is the minimum estimated global frequency share
	// for a key to be broadcast instead of partitioned.
	DefaultHotFraction = 0.01
	// DefaultMaxHot caps the hot set (and sizes the sketch).
	DefaultMaxHot = 64
)

// SkewConfig tunes adaptive skew handling; zero values select defaults.
type SkewConfig struct {
	// SampleBudget is the number of tuples each server samples before
	// publishing its sketch.
	SampleBudget int
	// HotFraction is the minimum share of the globally sampled tuples a
	// key hash must hold to be treated as a heavy hitter.
	HotFraction float64
	// MaxHot caps the number of heavy hitters.
	MaxHot int
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.SampleBudget <= 0 {
		c.SampleBudget = DefaultSampleBudget
	}
	if c.HotFraction <= 0 {
		c.HotFraction = DefaultHotFraction
	}
	if c.MaxHot <= 0 {
		c.MaxHot = DefaultMaxHot
	}
	return c
}

// SkewStats reports what the coordinator decided.
type SkewStats struct {
	SampledTuples int    // tuples sampled locally
	GlobalSampled uint64 // tuples sampled cluster-wide
	HotKeys       int    // size of the agreed hot-hash set
}

// SkewCoordConfig wires a SkewCoord.
type SkewCoordConfig struct {
	Mux     *mux.Mux
	Pool    *memory.Pool
	QueryID int32 // query the control exchange belongs to
	ExID    int32 // dedicated control exchange carrying the sketches
	Servers int
	Config  SkewConfig
	// Cancel, when closed, aborts WaitReady so a failing query cannot
	// deadlock a server inside a send finalize waiting for sketches that
	// will never arrive.
	Cancel <-chan struct{}
}

// SkewCoord is the per-server heavy-hitter coordinator shared by the
// probe- and build-side sends of one skew-adaptive join. All servers run
// the identical merge over the identical n sketches, so the published
// hot set is globally consistent — the invariant that makes local probing
// of broadcast build rows correct.
type SkewCoord struct {
	cfg  SkewCoordConfig
	recv *mux.ExchangeRecv

	mu       sync.Mutex
	sk       *sketch.SpaceSaving
	sampling bool
	sampled  int
	wakes    []func()

	completeOnce sync.Once
	ready        chan struct{}
	readyFlag    atomic.Bool
	hot          map[uint32]struct{}
	stats        SkewStats
}

// NewSkewCoord creates the coordinator and opens its control exchange
// (every server sends exactly one Last-flagged sketch message).
func NewSkewCoord(cfg SkewCoordConfig) *SkewCoord {
	if cfg.Mux == nil || cfg.Pool == nil {
		invariant.Failf("exchange: SkewCoord needs a mux and a pool")
	}
	if cfg.Servers < 1 {
		invariant.Failf("exchange: SkewCoord needs at least one server")
	}
	cfg.Config = cfg.Config.withDefaults()
	c := &SkewCoord{
		cfg:      cfg,
		recv:     cfg.Mux.OpenExchange(cfg.QueryID, cfg.ExID, cfg.Servers),
		sampling: true,
		// Oversize the sketch relative to the hot-set cap for accuracy.
		sk:    sketch.New(4 * cfg.Config.MaxHot),
		ready: make(chan struct{}),
	}
	return c
}

// ObserveBatch feeds the key hashes of b into the sketch during the
// sampling phase. It returns true exactly once: for the batch that
// exhausts the sample budget (the caller then invokes CompleteSampling).
func (c *SkewCoord) ObserveBatch(w *engine.Worker, b *storage.Batch, keys []int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sampling {
		return false
	}
	for _, h := range w.HashRows(b, keys) {
		c.sk.Observe(h)
	}
	c.sampled += b.Rows()
	if c.sampled >= c.cfg.Config.SampleBudget {
		c.sampling = false
		return true
	}
	return false
}

// CompleteSampling ends the sampling phase (idempotent): the local sketch
// is broadcast to every server through the control exchange — one shared
// buffer, Retain-counted — and the cluster-wide merge starts in the
// background. It never blocks on the network.
func (c *SkewCoord) CompleteSampling(node numa.Node) {
	c.completeOnce.Do(func() {
		c.mu.Lock()
		c.sampling = false
		c.stats.SampledTuples = c.sampled
		ents := c.sk.Entries()
		total := c.sk.Total()
		c.mu.Unlock()

		msg := c.cfg.Pool.Get(node)
		msg.QueryID = c.cfg.QueryID
		msg.ExchangeID = c.cfg.ExID
		msg.Sender = c.cfg.Mux.ServerID()
		msg.Last = true // one sketch per sender closes the exchange
		msg.Seq = 0     // first and only message on this sender's streams
		msg.Content = encodeSketch(msg.Content, total, ents, msg.Remaining())
		if c.cfg.Servers > 1 {
			msg.Retain(c.cfg.Servers - 1)
		}
		for d := 0; d < c.cfg.Servers; d++ {
			c.cfg.Mux.Send(d, msg)
		}
		go c.gather()
	})
}

// gather collects all n sketches, merges them deterministically and
// publishes the global hot set. A cancelled query aborts the wait (a
// crashed server never sends its sketch; without the cancel path this
// goroutine and the retained sketch buffers would leak until the mux
// closes) — WaitReady callers then fail through their own Cancel select.
func (c *SkewCoord) gather() {
	wake := make(chan struct{}, 1)
	c.recv.SetWake(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	merged := map[uint32]uint64{}
	var grand uint64
	for {
		msg, done := c.recv.TryRecv(0)
		if msg == nil {
			if done {
				break // all sketches in (or the mux is shutting down)
			}
			select {
			case <-wake:
			case <-c.cfg.Cancel:
				c.drainAborted()
				return
			}
			continue
		}
		total, ents := decodeSketch(msg.Content)
		grand += total
		for _, e := range ents {
			merged[e.Item] += e.Count
		}
		msg.Release()
	}
	hot := make(map[uint32]struct{})
	if grand > 0 {
		thresh := uint64(float64(grand) * c.cfg.Config.HotFraction)
		if thresh < 2 {
			thresh = 2
		}
		type cand struct {
			h   uint32
			cnt uint64
		}
		var cands []cand
		for h, cnt := range merged {
			if cnt >= thresh {
				//lint:allow wiredeterminism sorted below by (count, hash) and hash is the unique map key, so the comparator is total
				cands = append(cands, cand{h, cnt})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].cnt != cands[j].cnt {
				return cands[i].cnt > cands[j].cnt
			}
			return cands[i].h < cands[j].h
		})
		if len(cands) > c.cfg.Config.MaxHot {
			cands = cands[:c.cfg.Config.MaxHot]
		}
		for _, cd := range cands {
			hot[cd.h] = struct{}{}
		}
	}
	c.mu.Lock()
	c.hot = hot
	c.stats.GlobalSampled = grand
	c.stats.HotKeys = len(hot)
	wakes := append([]func(){}, c.wakes...)
	c.mu.Unlock()
	c.readyFlag.Store(true)
	close(c.ready)
	for _, f := range wakes {
		f()
	}
}

// drainAborted releases whatever sketch messages already arrived when the
// query was cancelled mid-gather.
func (c *SkewCoord) drainAborted() {
	for {
		msg, _ := c.recv.TryRecv(0)
		if msg == nil {
			return
		}
		msg.Release()
	}
}

// Ready reports whether the cluster-wide hot set has been published.
func (c *SkewCoord) Ready() bool { return c.readyFlag.Load() }

// WaitReady blocks until the hot set is published or the query is
// cancelled.
func (c *SkewCoord) WaitReady() error {
	if c.readyFlag.Load() {
		return nil
	}
	if c.cfg.Cancel == nil {
		<-c.ready
		return nil
	}
	select {
	case <-c.ready:
		return nil
	case <-c.cfg.Cancel:
		return fmt.Errorf("exchange: skew decision abandoned: query cancelled")
	}
}

// Hot reports whether a key hash is in the global hot set. Only
// meaningful after Ready; during sampling it reports false.
func (c *SkewCoord) Hot(h uint32) bool {
	if !c.readyFlag.Load() {
		return false
	}
	_, ok := c.hot[h]
	return ok
}

// Stats returns the decision statistics (call after Ready).
func (c *SkewCoord) Stats() SkewStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AddWake registers a callback fired when the hot set is published (used
// by GatedSource to re-wake the scheduler). Fires immediately if already
// published.
func (c *SkewCoord) AddWake(f func()) {
	c.mu.Lock()
	c.wakes = append(c.wakes, f)
	ready := c.readyFlag.Load()
	c.mu.Unlock()
	if ready {
		f()
	}
}

// --- sketch wire format: [uint64 total][uint32 n][n × (uint32 hash, uint64 count)] ---

func encodeSketch(out []byte, total uint64, ents []sketch.Entry, capacity int) []byte {
	maxEnts := (capacity - 12) / 12
	if len(ents) > maxEnts {
		ents = ents[:maxEnts]
	}
	out = binary.LittleEndian.AppendUint64(out, total)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ents)))
	for _, e := range ents {
		out = binary.LittleEndian.AppendUint32(out, e.Item)
		out = binary.LittleEndian.AppendUint64(out, e.Count)
	}
	return out
}

func decodeSketch(in []byte) (total uint64, ents []sketch.Entry) {
	if len(in) < 12 {
		return 0, nil
	}
	total = binary.LittleEndian.Uint64(in)
	n := int(binary.LittleEndian.Uint32(in[8:]))
	in = in[12:]
	for i := 0; i < n && len(in) >= 12; i++ {
		ents = append(ents, sketch.Entry{
			Item:  binary.LittleEndian.Uint32(in),
			Count: binary.LittleEndian.Uint64(in[4:]),
		})
		in = in[12:]
	}
	return total, ents
}

// GatedSource wraps the build-side input of a skew-adaptive join: it
// reports "no input yet" (without blocking a worker) until the hot-key
// decision is published, then delegates to the inner source. The build
// tuples must not be routed before the decision because hot and cold keys
// take different routes on every server.
type GatedSource struct {
	inner engine.Source
	coord *SkewCoord
}

// NewGatedSource wraps inner, gating it on coord's decision.
func NewGatedSource(inner engine.Source, coord *SkewCoord) *GatedSource {
	return &GatedSource{inner: inner, coord: coord}
}

// Poll implements engine.Source: (nil, false) parks the pipeline until
// the decision wake fires.
func (g *GatedSource) Poll(w *engine.Worker) (*storage.Batch, bool) {
	if !g.coord.Ready() {
		return nil, false
	}
	return g.inner.Poll(w)
}

// SetWake implements engine.WakeSource: the scheduler is woken both by
// the decision and by the inner source's own deliveries.
func (g *GatedSource) SetWake(f func()) {
	g.coord.AddWake(f)
	if ws, ok := g.inner.(engine.WakeSource); ok {
		ws.SetWake(f)
	}
}

// HasLocal implements engine.LocalityHinter.
func (g *GatedSource) HasLocal(node numa.Node) bool {
	if !g.coord.Ready() {
		return false
	}
	if h, ok := g.inner.(engine.LocalityHinter); ok {
		return h.HasLocal(node)
	}
	return true
}

// Err implements engine.FallibleSource (forwarded from the inner source).
func (g *GatedSource) Err() error {
	if fs, ok := g.inner.(engine.FallibleSource); ok {
		return fs.Err()
	}
	return nil
}
