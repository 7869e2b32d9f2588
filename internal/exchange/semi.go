// Semi-join reduction for partitioned inner joins (a Bloomjoin; cf.
// Mackert and Lohman, VLDB 1986). An engineering departure from the
// paper, which ships every probe row of a partitioned join.
//
// The build-side send keeps the key hash of every row it routes. When it
// finishes, the server summarizes those hashes in a Bloom filter and
// broadcasts it once on a control exchange; every server ORs the n
// filters into the same merged filter. The probe-side send depends on
// that round's pipeline and drops each row whose key hash misses it before
// serializing, so probe rows without a build partner never reach the
// wire. A Bloom filter has no false negatives, so every row that can find
// a partner is still shipped and the join's result is unchanged.
//
// A range-routed join whose build rows already lie where the range map
// puts them needs no round: every build key a server owns is on that
// server. Its build send routes each row to its own server and sets a
// local filter over their keys, and the probe send tests only the rows it
// keeps on this server; the few it routes elsewhere pass untested.
package exchange

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"hsqp/internal/engine"
	"hsqp/internal/memory"
	"hsqp/internal/storage"
)

// Filter sizing: bitsPerKey bits for every build key in the cluster, at
// least 1<<minFilterLg bits, k = 3 probes per key.
const (
	bitsPerKey  = 10
	minFilterLg = 9
	// filterMul spreads a 32-bit key hash over 64 bits; the three probe
	// positions are 21-bit windows of the product, each masked to the
	// filter's size. The windows do not depend on the size, so folding a
	// filter in half (OR-ing its halves) keeps every key's bits set.
	filterMul = 0x9e3779b97f4a7c15
)

// filterProbes returns the three bit positions of hash h in a filter of
// mask+1 bits.
func filterProbes(h uint32, mask uint64) (uint64, uint64, uint64) {
	x := uint64(h) * filterMul
	return x >> 43 & mask, x >> 22 & mask, x >> 1 & mask
}

// SemiFilter is one server's side of the Bloom filter of a partitioned
// inner join's build keys: it encodes and broadcasts this server's filter
// (sendFilter, from the build send's finalize), is the pipeline of the
// round that merges the n filters (see controlRound), and answers the
// probe send's membership test. A local filter has no round.
type SemiFilter struct {
	controlRound
	maxLg int  // the largest filter one pooled message holds
	local bool // this server's keys only, set by sendFilter

	// The merged filter, written by merge (a local one by sendFilter) and
	// read only after Ready.
	words []uint64
	mask  uint64
}

// NewSemiFilter creates the filter and opens its control exchange (every
// server sends exactly one Last-flagged filter message).
func NewSemiFilter(cfg ControlConfig) *SemiFilter {
	f := &SemiFilter{maxLg: bits.Len(uint(8*cfg.Pool.MessageSize())) - 1}
	f.init(cfg, f)
	return f
}

// NewLocalSemiFilter creates the filter of a range-routed join whose
// build stays on its servers: the build send sets it from this server's
// keys, and the probe send, which depends on the build send's pipeline,
// tests only the rows it keeps on this server.
func NewLocalSemiFilter() *SemiFilter { return &SemiFilter{local: true} }

// filterLg is the sizing rule: log2 of the next power of two of bitsPerKey
// bits for every build key in the cluster, estimated as servers × the
// rows this server routed, at least minFilterLg, and folded down until
// the filter fits a message of capacity bytes (one lg byte, then the
// bits).
func filterLg(rows, servers, capacity int) int {
	lg := minFilterLg
	for 1<<lg < bitsPerKey*servers*rows {
		lg++
	}
	for lg > minFilterLg && 1+1<<lg/8 > capacity {
		lg--
	}
	return lg
}

// setFilter sets the bits of the hashes in c (one per routed build row,
// in I64) in the filter bits set, whose size is a power of two.
func setFilter(set []byte, c *storage.Column) {
	mask := uint64(8*len(set) - 1)
	for _, h := range c.I64 {
		p1, p2, p3 := filterProbes(uint32(h), mask)
		set[p1>>3] |= 1 << (p1 & 7)
		set[p2>>3] |= 1 << (p2 & 7)
		set[p3>>3] |= 1 << (p3 & 7)
	}
}

// decodeFilter checks one peer's filter message and returns its size: a
// filter is one lg byte in [minFilterLg, maxLg] followed by exactly 1<<lg
// bits.
func decodeFilter(in []byte, maxLg int) (lg int, err error) {
	if len(in) == 0 {
		return 0, fmt.Errorf("empty filter")
	}
	lg = int(in[0])
	if lg < minFilterLg || lg > maxLg {
		return 0, fmt.Errorf("filter of 2^%d bits, want 2^%d..2^%d", lg, minFilterLg, maxLg)
	}
	if len(in) != 1+1<<lg/8 {
		return 0, fmt.Errorf("filter of 2^%d bits in %d bytes, want %d", lg, len(in), 1+1<<lg/8)
	}
	return lg, nil
}

// sendFilter encodes this server's filter over the build hashes each worker
// of the build send kept, broadcasts it, and gives the kept columns back
// to the engine's pool. It returns the wire bytes it put on the
// multiplexer (one message per server). A local filter is set in place
// and puts nothing on the wire.
func (f *SemiFilter) sendFilter(w *engine.Worker, workers []workerSendState) uint64 {
	rows := 0
	for i := range workers {
		if c := workers[i].kept; c != nil {
			rows += len(c.I64)
		}
	}
	if f.local {
		set := make([]byte, 1<<filterLg(rows, 1, math.MaxInt)/8)
		f.keep(w, workers, set)
		f.words, f.mask = make([]uint64, len(set)/8), uint64(8*len(set)-1)
		orWords(f.words, set)
		f.done.Store(true)
		return 0
	}
	msg := f.message(w.Node)
	lg := filterLg(rows, f.cfg.Servers, msg.Capacity())
	msg.Content = append(msg.Content, byte(lg))
	msg.Content = append(msg.Content, make([]byte, 1<<lg/8)...)
	f.keep(w, workers, msg.Content[1:])
	wire := uint64(msg.WireSize()) * uint64(f.cfg.Servers)
	f.send(msg)
	return wire
}

// keep sets the bits of every kept hash in set and gives the kept columns
// back to the engine's pool.
func (f *SemiFilter) keep(w *engine.Worker, workers []workerSendState, set []byte) {
	for i := range workers {
		if c := workers[i].kept; c != nil {
			setFilter(set, c)
			w.GiveColumns([]*storage.Column{c})
			workers[i].kept = nil
		}
	}
}

// orWords ORs the filter bits set into words, folding set down to
// len(words) words.
func orWords(words []uint64, set []byte) {
	wmask := len(words) - 1
	for i := 0; i < len(set); i += 8 {
		words[i/8&wmask] |= binary.LittleEndian.Uint64(set[i:])
	}
}

// merge folds every server's filter down to the smallest size received
// and ORs them, straight out of the message bytes. Folding a filter in
// half ORs its halves, which keeps every key's bits set, so the merge has
// no false negative whatever sizes the servers chose; every server folds
// the same n filters to the same size, so the merged filter is identical
// cluster-wide.
func (f *SemiFilter) merge(msgs []*memory.Message) error {
	lg := f.maxLg
	for _, msg := range msgs {
		l, err := decodeFilter(msg.Content, f.maxLg)
		if err != nil {
			return fmt.Errorf("exchange %d: malformed semi-join filter from server %d: %w", f.cfg.ExID, msg.Sender, err)
		}
		lg = min(lg, l)
	}
	words := make([]uint64, 1<<lg/64)
	for _, msg := range msgs {
		orWords(words, msg.Content[1:])
	}
	f.words, f.mask = words, uint64(1)<<lg-1
	return nil
}

// may reports whether a key hash may be among the build keys: false only
// for a hash no server's build side routed. Call after Ready.
func (f *SemiFilter) may(h uint32) bool {
	p1, p2, p3 := filterProbes(h, f.mask)
	w := f.words
	return w[p1>>6]&(1<<(p1&63)) != 0 && w[p2>>6]&(1<<(p2&63)) != 0 && w[p3>>6]&(1<<(p3&63)) != 0
}

// keepHashes appends a batch's build-key hashes to a worker's kept vector,
// whose columns come from the engine's pool: a full vector is traded for
// one of twice the size rather than grown.
func keepHashes(w *engine.Worker, kept *storage.Column, hashes []uint32) *storage.Column {
	if kept == nil || kept.Room() < len(hashes) {
		n := 0
		if kept != nil {
			n = len(kept.I64)
		}
		grown := w.TakeColumn(storage.TInt64, false, max(2*(n+len(hashes)), 1024))
		if kept != nil {
			grown.I64 = append(grown.I64, kept.I64...)
			w.GiveColumns([]*storage.Column{kept})
		}
		kept = grown
	}
	for _, h := range hashes {
		kept.I64 = append(kept.I64, int64(h))
	}
	return kept
}
