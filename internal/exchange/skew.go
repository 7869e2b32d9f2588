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

	"hsqp/internal/engine"
	"hsqp/internal/memory"
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
	// ControlConfig names the dedicated control exchange that carries the
	// sketches.
	ControlConfig
	Config SkewConfig
}

// SkewCoord is the per-server heavy-hitter coordinator shared by the
// probe- and build-side sends of one skew-adaptive join. All servers run
// the identical merge over the identical n sketches, so the published
// hot set is globally consistent — the invariant that makes local probing
// of broadcast build rows correct. The coordinator is its round's
// pipeline (see controlRound): the build send and the probe send's
// SkewFlush depend on it.
type SkewCoord struct {
	controlRound
	cfg SkewConfig

	mu       sync.Mutex
	sk       *sketch.SpaceSaving
	sampling bool
	sampled  int

	completeOnce sync.Once
	hot          map[uint32]struct{} // written by the merge, read after Ready
	stats        SkewStats
}

// NewSkewCoord creates the coordinator and opens its control exchange
// (every server sends exactly one Last-flagged sketch message).
func NewSkewCoord(cfg SkewCoordConfig) *SkewCoord {
	c := &SkewCoord{
		cfg:      cfg.Config.withDefaults(),
		sampling: true,
	}
	// Oversize the sketch relative to the hot-set cap for accuracy.
	c.sk = sketch.New(4 * c.cfg.MaxHot)
	c.init(cfg.ControlConfig, c)
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
	if c.sampled >= c.cfg.SampleBudget {
		c.sampling = false
		return true
	}
	return false
}

// CompleteSampling ends the sampling phase (idempotent): the local sketch
// is broadcast to every server through the control exchange, and the
// round's pipeline merges once every server's sketch is in. It never
// blocks on the network.
func (c *SkewCoord) CompleteSampling(node numa.Node) {
	c.completeOnce.Do(func() {
		c.mu.Lock()
		c.sampling = false
		c.stats.SampledTuples = c.sampled
		ents := c.sk.Entries()
		total := c.sk.Total()
		c.mu.Unlock()

		msg := c.message(node)
		msg.Content = encodeSketch(msg.Content, total, ents, msg.Remaining())
		c.send(msg)
	})
}

// merge sums the n sketches and picks the global hot set: every key hash
// whose summed count reaches HotFraction of all sampled tuples, the
// MaxHot heaviest of them, ties broken by hash.
func (c *SkewCoord) merge(msgs []*memory.Message) error {
	merged := map[uint32]uint64{}
	var grand uint64
	for _, msg := range msgs {
		total, ents, err := decodeSketch(msg.Content)
		if err != nil {
			return fmt.Errorf("exchange %d: malformed sketch from server %d: %w", c.controlRound.cfg.ExID, msg.Sender, err)
		}
		grand += total
		for _, e := range ents {
			merged[e.Item] += e.Count
		}
	}
	hot := make(map[uint32]struct{})
	if grand > 0 {
		thresh := uint64(float64(grand) * c.cfg.HotFraction)
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
		if len(cands) > c.cfg.MaxHot {
			cands = cands[:c.cfg.MaxHot]
		}
		for _, cd := range cands {
			hot[cd.h] = struct{}{}
		}
	}
	c.mu.Lock()
	c.hot = hot
	c.stats.GlobalSampled = grand
	c.stats.HotKeys = len(hot)
	c.mu.Unlock()
	return nil
}

// Hot reports whether a key hash is in the global hot set. Only
// meaningful after Ready; during sampling it reports false.
func (c *SkewCoord) Hot(h uint32) bool {
	if !c.Ready() {
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

func decodeSketch(in []byte) (total uint64, ents []sketch.Entry, err error) {
	if len(in) < 12 {
		return 0, nil, fmt.Errorf("%d bytes, want at least 12", len(in))
	}
	total = binary.LittleEndian.Uint64(in)
	n := int(binary.LittleEndian.Uint32(in[8:]))
	in = in[12:]
	if len(in) != 12*n {
		return 0, nil, fmt.Errorf("%d entries in %d bytes", n, len(in))
	}
	ents = make([]sketch.Entry, n)
	for i := range ents {
		ents[i] = sketch.Entry{
			Item:  binary.LittleEndian.Uint32(in[12*i:]),
			Count: binary.LittleEndian.Uint64(in[12*i+4:]),
		}
	}
	return total, ents, nil
}
