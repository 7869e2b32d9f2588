// Package exchange implements the decoupled exchange operators of §3.2.1.
//
// A decoupled exchange operator only talks to its server's communication
// multiplexer — it is unaware of every other exchange operator, local or
// remote. The send side consumes tuples from the preceding pipeline
// operator, partitions them by the CRC32 hash of the key attributes (or
// serializes once and broadcasts with a retain count), fills 512 KB pooled
// messages with the schema-specialized wire format of Figure 8, and hands
// full messages to the multiplexer. The receive side (Source) polls one
// lane of its exchange's receive queue, deserializes and pushes the tuples
// into the next pipeline: a hybrid exchange has one lane per NUMA socket
// and a worker polls its socket's lane, stealing from the fullest other
// lane when its own runs dry.
//
// The same package implements the classic exchange-operator baseline
// (Mode ModeClassicPartition): n×t parallel units with fixed partition
// assignment — used by Figure 2's comparison. Its exchange has one lane
// per worker; a worker polls only its own and never steals.
//
// Adaptive skew handling (Flow-Join style, see skew.go): the probe-side
// send samples key hashes through a Space-Saving sketch during the first
// morsels, the per-server sketches are merged cluster-wide, and tuples of
// globally heavy keys switch routes — heavy probe tuples stay on their
// origin server while the build side replicates heavy keys to every
// server through the Retain-based selective-broadcast stream. Cold keys
// keep ordinary hash partitioning.
package exchange

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hsqp/internal/engine"
	"hsqp/internal/invariant"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// Mode selects the data movement pattern.
type Mode int

const (
	// ModePartition hash-partitions tuples into one message stream per
	// server (hybrid parallelism: servers are the parallel units).
	ModePartition Mode = iota
	// ModeBroadcast serializes tuples once and sends the message to every
	// server, using a retain count instead of copies.
	ModeBroadcast
	// ModeGather sends all tuples to the coordinator (server 0).
	ModeGather
	// ModeClassicPartition hash-partitions into n×t streams, one per
	// (server, worker) parallel unit — the classic baseline.
	ModeClassicPartition
	// ModeSkewProbe is the probe side of a skew-adaptive join: key hashes
	// are sampled through the SkewCoord's sketch during the first morsels;
	// after the cluster-wide heavy-hitter decision, tuples of hot keys stay
	// on their origin server and cold keys hash-partition as usual.
	ModeSkewProbe
	// ModeSkewBuild is the build side of a skew-adaptive join: tuples of
	// hot keys are replicated to every server through a Retain-based
	// selective-broadcast stream, cold keys hash-partition. The pipeline
	// feeding this sink depends on the SkewCoord's round.
	ModeSkewBuild
)

func (m Mode) String() string {
	switch m {
	case ModePartition:
		return "partition"
	case ModeBroadcast:
		return "broadcast"
	case ModeGather:
		return "gather"
	case ModeClassicPartition:
		return "classic-partition"
	case ModeSkewProbe:
		return "skew-probe"
	case ModeSkewBuild:
		return "skew-build"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SendConfig configures a send-side exchange operator.
type SendConfig struct {
	Mux  *mux.Mux
	Pool *memory.Pool
	// QueryID identifies the query this exchange belongs to; the
	// multiplexer routes on (QueryID, ExID) so concurrent queries may reuse
	// the same exchange-id sequence.
	QueryID int32
	ExID    int32
	Mode    Mode
	Servers int
	// WorkersPerServer is required for ModeClassicPartition (t).
	WorkersPerServer int
	// Keys are the partition key columns (partition modes).
	Keys []int
	// Codec serializes the input schema.
	Codec *ser.Codec
	// NumWorkers is this engine's worker count (per-worker send state).
	NumWorkers int
	// Topo/Scale charge the QPI cost of serializing into a message buffer
	// homed on another socket (Figure 9's send-side share).
	Topo  *numa.Topology
	Scale float64
	// Skew is the per-server heavy-hitter coordinator shared by the probe
	// and build sides of one skew-adaptive join (ModeSkewProbe /
	// ModeSkewBuild).
	Skew *SkewCoord
	// BuildFilter (ModePartition) keeps the key hash of every row this
	// send routes and, at finalize, publishes the filter over them: the
	// build side of a semi-join-reduced join.
	BuildFilter *SemiFilter
	// ProbeFilter (ModePartition) drops every row whose key hash misses
	// the merged filter: the probe side of the same join. The pipeline
	// feeding this sink depends on the filter's round, or for a local
	// filter (Ranges only) on the build send's pipeline, and only the
	// rows this server keeps are tested.
	ProbeFilter *SemiFilter
	// Ranges (ModePartition, one integer key) routes each row to the
	// server that owns its key value instead of by its key hash. A filter
	// still keeps and tests key hashes.
	Ranges *RangeMap
}

// Send is the send-side pipeline breaker.
type Send struct {
	cfg     SendConfig
	units   int // number of destination streams
	workers []workerSendState

	// destSeq[d] is the next wire sequence number for destination server d.
	// Stamping and handing the message to the multiplexer happen under
	// destMu[d] so each per-destination stream stays strictly increasing
	// even when workers dispatch concurrently — per-destination locks,
	// because Mux.Send can block on a backed-up link and one straggler
	// destination must not head-of-line-block sends to healthy ones.
	// broadcastStamped acquires all locks in index order.
	destMu  []sync.Mutex
	destSeq []uint32

	round *controlRound // the round Consume routes by (filter probe, skew build)

	tuplesSent atomic.Uint64
	bytesSent  atomic.Uint64 // wire bytes (header + payload) handed to the mux
}

type workerSendState struct {
	// open[unit] is the message currently being filled for a destination.
	open []*memory.Message
	// held buffers batches during the skew sampling phase (ModeSkewProbe):
	// nothing is routed until the cluster-wide heavy-hitter set is known.
	held []*storage.Batch
	// kept holds the key hashes of the rows this worker routed, for the
	// BuildFilter; its column comes from the engine's pool.
	kept *storage.Column
	_pad [8]uint64 // avoid false sharing between workers
}

// NewSend creates the sink.
func NewSend(cfg SendConfig) *Send {
	units := cfg.Servers
	switch cfg.Mode {
	case ModeClassicPartition:
		units = cfg.Servers * cfg.WorkersPerServer
		if cfg.WorkersPerServer <= 0 {
			invariant.Failf("exchange: classic partition needs WorkersPerServer")
		}
	case ModeBroadcast, ModeGather:
		units = 1 // one stream, fanned out / directed by flush
	case ModeSkewBuild:
		// One stream per server for cold keys plus the selective-broadcast
		// stream for hot keys.
		units = cfg.Servers + 1
	}
	if (cfg.Mode == ModeSkewProbe || cfg.Mode == ModeSkewBuild) && cfg.Skew == nil {
		invariant.Failf("exchange: skew modes need a SkewCoord")
	}
	if (cfg.BuildFilter != nil || cfg.ProbeFilter != nil) && cfg.Mode != ModePartition {
		invariant.Failf("exchange: a semi-join filter needs ModePartition, not %v", cfg.Mode)
	}
	if f := cfg.ProbeFilter; f != nil && f.local && cfg.Ranges == nil {
		invariant.Failf("exchange: a local semi-join filter needs a range route")
	}
	if r := cfg.Ranges; r != nil && (cfg.Mode != ModePartition || len(cfg.Keys) != 1 || len(r.Lo) != cfg.Servers) {
		invariant.Failf("exchange: a range route needs ModePartition on one key over %d servers; got %v on %d keys, %d ranges",
			cfg.Servers, cfg.Mode, len(cfg.Keys), len(r.Lo))
	}
	s := &Send{cfg: cfg, units: units,
		destMu: make([]sync.Mutex, cfg.Servers), destSeq: make([]uint32, cfg.Servers)}
	switch {
	case cfg.ProbeFilter != nil:
		s.round = &cfg.ProbeFilter.controlRound
	case cfg.Mode == ModeSkewBuild:
		s.round = &cfg.Skew.controlRound
	}
	s.workers = make([]workerSendState, cfg.NumWorkers)
	for i := range s.workers {
		s.workers[i].open = make([]*memory.Message, units)
	}
	return s
}

// BytesSent reports the exact wire bytes (headers + payload, including
// loopback partitions to this server and Last markers) this exchange put
// on the multiplexer. Broadcast buffers count once per destination.
func (s *Send) BytesSent() uint64 { return s.bytesSent.Load() }

// SinkStats implements engine.SinkStats: the per-pipeline stats expose
// tuples and exact wire bytes, so per-query byte accounting no longer
// depends on cluster-wide mux deltas.
func (s *Send) SinkStats() (rows, bytes uint64) {
	return s.tuplesSent.Load(), s.bytesSent.Load()
}

// OpName implements engine.NamedOp: send(range) for a partition send that
// routes by a RangeMap.
func (s *Send) OpName() string {
	if s.cfg.Ranges != nil {
		return "send(range)"
	}
	return "send(" + s.cfg.Mode.String() + ")"
}

// Mode returns the routing mode. ModeSkewProbe holds the batches it
// consumes until the skew decision, so the planner gives no reused scratch
// to a pipeline that ends in one.
func (s *Send) Mode() Mode { return s.cfg.Mode }

// Ranges returns the range map the send routes by, nil for every other
// route.
func (s *Send) Ranges() *RangeMap { return s.cfg.Ranges }

// Filtered reports whether the send drops probe rows that miss a
// semi-join filter.
func (s *Send) Filtered() bool { return s.cfg.ProbeFilter != nil }

// Consume implements engine.Sink: partition/serialize (step 2 of
// Figure 7) and pass full messages to the multiplexer (step 3).
func (s *Send) Consume(w *engine.Worker, b *storage.Batch) {
	st := &s.workers[w.ID]
	if s.round != nil && !s.round.Ready() {
		invariant.Failf("exchange %d: %v send consumed rows before its round or local filter published; its pipeline must depend on the pipeline that publishes it", s.cfg.ExID, s.cfg.Mode)
	}
	if sk := s.cfg.Skew; s.cfg.Mode == ModeSkewProbe && !sk.Ready() {
		// Sampling phase: hold the batch and feed the sketch; the worker
		// that exhausts the budget publishes the local sketch (non-blocking
		// — the cluster-wide merge runs asynchronously).
		st.held = append(st.held, b)
		if sk.ObserveBatch(w, b, s.cfg.Keys) {
			sk.CompleteSampling(w.Node)
		}
		return
	}
	s.flushHeld(st, w) // what this worker held while sampling, if anything
	s.routeBatch(st, w, b)
}

// flushHeld routes the batches a worker buffered during skew sampling.
func (s *Send) flushHeld(st *workerSendState, w *engine.Worker) {
	if len(st.held) == 0 {
		return
	}
	held := st.held
	st.held = nil
	for _, b := range held {
		s.routeBatch(st, w, b)
	}
}

// routeBatch serializes every row of b into the open message of its
// destination stream, dispatching messages as they fill up. What can be
// done once per batch is: the key hashes are one vector (w's), and the
// bytes written into socket-local messages are accounted with one Charge.
// A probe send under a semi-join filter skips the rows whose hash misses
// it; the rows it routes are what SinkStats counts. A range route reads
// the key values, and hashes them only for a filter.
func (s *Send) routeBatch(st *workerSendState, w *engine.Worker, b *storage.Batch) {
	var hashes []uint32
	var keys []int64
	probe := s.cfg.ProbeFilter
	switch s.cfg.Mode {
	case ModePartition, ModeClassicPartition, ModeSkewProbe, ModeSkewBuild:
		if s.cfg.Ranges != nil {
			keys = b.Cols[s.cfg.Keys[0]].I64
		}
		if s.cfg.Ranges == nil || s.cfg.BuildFilter != nil || probe != nil {
			hashes = w.HashRows(b, s.cfg.Keys)
		}
	}
	if s.cfg.BuildFilter != nil {
		st.kept = keepHashes(w, st.kept, hashes)
	}
	node := w.Node
	localBytes := 0
	n := b.Rows()
	routed := n
	for i := 0; i < n; i++ {
		unit := 0
		switch s.cfg.Mode {
		case ModePartition:
			if r := s.cfg.Ranges; r != nil {
				unit = r.Owner(keys[i])
			} else {
				unit = storage.PartitionOf(hashes[i], s.cfg.Servers)
			}
		case ModeClassicPartition:
			unit = storage.PartitionOf(hashes[i], s.units)
		case ModeSkewProbe:
			if s.cfg.Skew.Hot(hashes[i]) {
				// Hot probe tuples stay local: every server holds the
				// broadcast build rows of hot keys, so probing on the
				// origin server is correct and spreads the heavy key over
				// all servers instead of one owner.
				unit = s.cfg.Mux.ServerID()
			} else {
				unit = storage.PartitionOf(hashes[i], s.cfg.Servers)
			}
		case ModeSkewBuild:
			if s.cfg.Skew.Hot(hashes[i]) {
				unit = s.units - 1 // selective-broadcast stream
			} else {
				unit = storage.PartitionOf(hashes[i], s.cfg.Servers)
			}
		}
		if probe != nil && (!probe.local || unit == s.cfg.Mux.ServerID()) && !probe.may(hashes[i]) {
			routed--
			continue
		}
		msg := st.open[unit]
		if msg == nil {
			msg = s.newMessage(node)
			//lint:allow poolsafe open per-destination buffers are owned by this thread state and flushed (dispatched or released) in FinalizeOn
			st.open[unit] = msg
		}
		need := s.cfg.Codec.RowSize(b, i)
		if need > msg.Remaining() {
			if need > msg.Capacity() {
				invariant.Failf("exchange: tuple of %d bytes exceeds message capacity %d", need, msg.Capacity())
			}
			s.dispatch(unit, msg, false)
			msg = s.newMessage(node)
			//lint:allow poolsafe open per-destination buffers are owned by this thread state and flushed (dispatched or released) in FinalizeOn
			st.open[unit] = msg
		}
		before := len(msg.Content)
		msg.Content = s.cfg.Codec.EncodeRow(b, i, msg.Content)
		if msg.Node == node {
			localBytes += len(msg.Content) - before
		} else if s.cfg.Topo != nil {
			// A remote write pays QPILatency per call, so it stays per row:
			// batching it would change Figure 9's modelled time.
			s.cfg.Topo.Charge(node, msg.Node, len(msg.Content)-before, s.cfg.Scale)
		}
	}
	if s.cfg.Topo != nil {
		s.cfg.Topo.Charge(node, node, localBytes, s.cfg.Scale)
	}
	s.tuplesSent.Add(uint64(routed))
}

func (s *Send) newMessage(node numa.Node) *memory.Message {
	// Step 4 of Figure 7: reuse a NUMA-local message from the pool.
	return s.cfg.Pool.Get(node)
}

// sendStamped stamps the next per-destination sequence number and hands
// the message to the multiplexer. Allocation and enqueue happen under the
// destination's mutex so its stream stays strictly increasing.
func (s *Send) sendStamped(dst int, msg *memory.Message) {
	s.bytesSent.Add(uint64(msg.WireSize()))
	mWireBytes.Add(uint64(msg.WireSize()))
	mMessages.Inc()
	s.destMu[dst].Lock()
	msg.Seq = s.destSeq[dst]
	s.destSeq[dst]++
	//lint:allow lockblock stamping and enqueue must be atomic per destination; destMu is leaf-level and Mux.Send blocks only on transport backpressure, never on destMu
	s.cfg.Mux.Send(dst, msg)
	s.destMu[dst].Unlock()
}

// broadcastStamped sends one shared buffer to every server via the retain
// count. The single wire sequence number must be valid for all
// destinations, so it holds every destination lock (in index order, so
// concurrent broadcasts cannot deadlock), takes the maximum of the
// per-destination counters and advances them all past it — destination
// streams may skip values but never regress.
func (s *Send) broadcastStamped(msg *memory.Message) {
	s.bytesSent.Add(uint64(msg.WireSize()) * uint64(s.cfg.Servers))
	mWireBytes.Add(uint64(msg.WireSize()) * uint64(s.cfg.Servers))
	mMessages.Add(uint64(s.cfg.Servers))
	for d := range s.destMu {
		s.destMu[d].Lock()
	}
	seq := uint32(0)
	for _, v := range s.destSeq {
		if v > seq {
			seq = v
		}
	}
	msg.Seq = seq
	for d := range s.destSeq {
		s.destSeq[d] = seq + 1
	}
	// One buffer, n references: retain for the n−1 extra destinations.
	if s.cfg.Servers > 1 {
		msg.Retain(s.cfg.Servers - 1)
	}
	for d := 0; d < s.cfg.Servers; d++ {
		//lint:allow lockblock the broadcast seq must be valid for all destinations, so all destMu are held (in index order); Mux.Send never takes destMu
		s.cfg.Mux.Send(d, msg)
	}
	for d := range s.destMu {
		s.destMu[d].Unlock()
	}
}

// dispatch routes one finished message stream unit. The header is stamped
// here, before the message is handed over, because a broadcast shares one
// buffer across destinations.
func (s *Send) dispatch(unit int, msg *memory.Message, last bool) {
	msg.Last = last
	msg.QueryID = s.cfg.QueryID
	msg.ExchangeID = s.cfg.ExID
	msg.Sender = s.cfg.Mux.ServerID()
	switch s.cfg.Mode {
	case ModePartition, ModeSkewProbe:
		s.sendStamped(unit, msg)
	case ModeClassicPartition:
		srv := unit / s.cfg.WorkersPerServer
		msg.Part = int16(unit % s.cfg.WorkersPerServer)
		s.sendStamped(srv, msg)
	case ModeGather:
		s.sendStamped(0, msg)
	case ModeBroadcast:
		s.broadcastStamped(msg)
	case ModeSkewBuild:
		if unit == s.units-1 {
			s.broadcastStamped(msg) // hot keys: selective broadcast
		} else {
			s.sendStamped(unit, msg)
		}
	}
}

// Finalize is FinalizeOn with a worker of its own, on socket 0 (callers
// outside the scheduler: tests, probes).
func (s *Send) Finalize() error { return s.FinalizeOn(&engine.Worker{}) }

// FinalizeOn implements engine.WorkerFinalizer: it flushes all partially
// filled messages and emits the Last markers that close this server's
// contribution to the exchange. Flush and Last-marker buffers are
// allocated NUMA-local to the finalizing worker, honoring the pool's
// AllocLocal policy instead of defaulting to socket 0. A skew-adaptive
// probe send only completes sampling here; its SkewFlush does the rest.
func (s *Send) FinalizeOn(w *engine.Worker) error {
	if s.cfg.Mode == ModeSkewProbe {
		s.cfg.Skew.CompleteSampling(w.Node)
		return nil
	}
	s.flush(w)
	return nil
}

// flush routes what the workers held while sampling, publishes a build
// filter, dispatches the partial messages and sends the Last markers.
func (s *Send) flush(w *engine.Worker) {
	node := w.Node
	for wi := range s.workers {
		s.flushHeld(&s.workers[wi], w)
	}
	if f := s.cfg.BuildFilter; f != nil {
		// Every row is routed: the filter is final. It goes out ahead of
		// the partial messages, so the probe sends that depend on its
		// round start sooner.
		if wire := f.sendFilter(w, s.workers); wire > 0 {
			s.bytesSent.Add(wire)
			mWireBytes.Add(wire)
			mMessages.Add(uint64(s.cfg.Servers))
		}
	}
	for wi := range s.workers {
		st := &s.workers[wi]
		for unit, msg := range st.open {
			if msg != nil && len(msg.Content) > 0 {
				s.dispatch(unit, msg, false)
			} else if msg != nil {
				msg.Release()
			}
			st.open[unit] = nil
		}
	}
	// Last markers: empty messages flagged Last, one per destination
	// server (the broadcast streams contribute data only — completion is
	// tracked per sender).
	stamp := func(m *memory.Message) *memory.Message {
		m.Last = true
		m.QueryID = s.cfg.QueryID
		m.ExchangeID = s.cfg.ExID
		m.Sender = s.cfg.Mux.ServerID()
		return m
	}
	switch s.cfg.Mode {
	case ModePartition, ModeSkewProbe, ModeSkewBuild, ModeBroadcast:
		for d := 0; d < s.cfg.Servers; d++ {
			s.sendStamped(d, stamp(s.cfg.Pool.Get(node)))
		}
	case ModeClassicPartition:
		for u := 0; u < s.units; u++ {
			m := stamp(s.cfg.Pool.Get(node))
			m.Part = int16(u % s.cfg.WorkersPerServer)
			s.sendStamped(u/s.cfg.WorkersPerServer, m)
		}
	case ModeGather:
		s.sendStamped(0, stamp(s.cfg.Pool.Get(node)))
	}
}

// Release implements engine.Releaser for a run aborted before this send
// finalized: the messages it was filling go back to their pool.
func (s *Send) Release(w *engine.Worker) {
	for wi := range s.workers {
		st := &s.workers[wi]
		for _, msg := range st.open {
			if msg != nil {
				msg.Release()
			}
		}
		clear(st.open)
		w.GiveColumns([]*storage.Column{st.kept})
		st.kept, st.held = nil, nil
	}
}

// SkewFlush is the sink of the zero-row pipeline that ends a skew-adaptive
// probe send. It depends on the send and on the skew round, so its
// finalize routes what the workers held while sampling by the published
// hot set and sends the Last markers; no finalize waits for the round.
type SkewFlush struct{ Send *Send }

func (f SkewFlush) Consume(*engine.Worker, *storage.Batch) {}
func (f SkewFlush) Finalize() error                        { return f.FinalizeOn(&engine.Worker{}) }
func (f SkewFlush) FinalizeOn(w *engine.Worker) error      { f.Send.flush(w); return nil }
func (f SkewFlush) Release(w *engine.Worker)               { f.Send.Release(w) }

// Source is the receive-side exchange: an engine.Source yielding
// deserialized batches (steps 5–7 of Figure 7).
type Source struct {
	Recv  *mux.ExchangeRecv
	Codec *ser.Codec
	Topo  *numa.Topology
	// Scale is the simulation time scale for the NUMA remote-access
	// charge.
	Scale float64
	// Classic makes workers consume only their fixed partition.
	Classic bool

	failMu  sync.Mutex
	failure error

	// slots are the per-worker decode targets in reuse mode; nil decodes
	// every message into a fresh batch.
	slots []engine.Slot
}

// ReuseBatches makes each worker decode its messages into one batch of
// its own, reused across messages, its columns pooled (see engine.Slot for
// the lifetime): the batch Poll returns is valid until that worker's next
// Poll on this source. Strings still get one arena per message, so a
// string value outlives the batch as before. Call before the first Poll,
// and only when nothing downstream retains the batch
// (plan.scratchSafe decides).
func (src *Source) ReuseBatches(workers int) {
	src.slots = make([]engine.Slot, max(workers, 1))
}

// Reuses reports whether ReuseBatches is in effect.
func (src *Source) Reuses() bool { return src.slots != nil }

// Release implements engine.Releaser: the decode slots' columns go back to
// the engine's pool.
func (src *Source) Release(w *engine.Worker) {
	for i := range src.slots {
		src.slots[i].Release(w)
	}
}

// Poll implements engine.Source: it never blocks, reporting (nil, false)
// while the exchange is still open but has no message for the worker's
// lane — the distinction that lets a receive pipeline become runnable as
// soon as the first message lands instead of stalling a whole plan stage.
// A worker's lane is its socket, or in classic mode its own partition.
func (src *Source) Poll(w *engine.Worker) (*storage.Batch, bool) {
	lane := int(w.Node)
	if src.Classic {
		lane = w.ID
	}
	for {
		if src.Err() != nil {
			return nil, true
		}
		msg, done := src.Recv.TryRecv(lane)
		if msg == nil {
			return nil, done
		}
		if b := src.decode(w, msg); b != nil {
			return b, false
		}
	}
}

// SetWake implements engine.WakeSource; a classic receive wakes the whole
// pool (mux.ExchangeRecv.SetWake).
func (src *Source) SetWake(f func(all bool)) { src.Recv.SetWake(f) }

// Err implements engine.FallibleSource: a corrupt message records the
// failure here and reports the source as drained; the scheduler aborts
// the run with the pipeline's name, cancelling the query cluster-wide
// instead of relying on panic recovery.
func (src *Source) Err() error {
	src.failMu.Lock()
	defer src.failMu.Unlock()
	return src.failure
}

func (src *Source) fail(err error) {
	src.failMu.Lock()
	if src.failure == nil {
		src.failure = err
	}
	src.failMu.Unlock()
}

// decode deserializes one message (step 6 of Figure 7), releasing the
// buffer back to the pool; nil for bare Last markers or on a recorded
// decode failure.
func (src *Source) decode(w *engine.Worker, msg *memory.Message) *storage.Batch {
	if len(msg.Content) == 0 {
		msg.Release()
		return nil // bare Last marker
	}
	// Touching a message homed on another socket streams it over QPI.
	if src.Topo != nil {
		src.Topo.Charge(w.Node, msg.Node, len(msg.Content), src.Scale)
	}
	// The destination is sized from the message's row count, a fresh
	// batch or the worker's slot, and the strings are copied into one
	// arena of their own, so releasing msg right after is safe: nothing
	// decoded aliases msg.Content.
	schema := src.Codec.Schema()
	b, err := src.Codec.DecodeInto(msg.Content, func(rows int) *storage.Batch {
		if src.slots == nil {
			return storage.NewBatch(schema, rows)
		}
		b, _ := src.slots[engine.SlotOf(w, len(src.slots))].Take(w, schema, rows)
		return b
	})
	if err != nil {
		sender := msg.Sender
		msg.Release()
		src.fail(fmt.Errorf("exchange %d: corrupt message from server %d: %w",
			src.Recv.ExID(), sender, err))
		return nil
	}
	msg.Release()
	if b.Rows() == 0 {
		return nil
	}
	return b
}
