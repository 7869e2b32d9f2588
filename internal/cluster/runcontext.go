package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/mux"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/sim"
	"hsqp/internal/storage"
)

// ErrServerLost marks a query failure caused by losing a server (crash,
// hang or network partition). RunContext retries such failures on the
// surviving membership; when retries are exhausted or recovery is
// impossible the surfaced error still matches errors.Is(err, ErrServerLost).
var ErrServerLost = errors.New("cluster: server lost")

// DefaultMaxRestarts bounds how many times RunContext transparently
// restarts a query after server losses before giving up.
const DefaultMaxRestarts = 2

// RunOptions is the resolved form of a RunOption list; callers set it
// through the With* options.
type RunOptions struct {
	// Tenant labels the query for admission control: a Session queues per
	// tenant and shares slots by SessionConfig.Tenants weight; the bare
	// cluster ignores it.
	Tenant string
	// MaxRestarts bounds transparent restarts after server losses.
	// Negative means 0 (fail on the first loss).
	MaxRestarts int
	// Plan holds the query's compile-time switches (classic exchange,
	// serial pipelines, no pushdown, …); the zero value is the paper's
	// engine. It is handed to the compiler untouched.
	Plan plan.Options
}

// RunOption customizes one RunContext call.
type RunOption func(*RunOptions)

// WithTenant labels the query with a tenant: the Session queue it waits in,
// weighted by SessionConfig.Tenants (1 when absent). Unlabelled queries
// share the tenant "".
func WithTenant(tenant string) RunOption {
	return func(o *RunOptions) { o.Tenant = tenant }
}

// WithMaxRestarts overrides DefaultMaxRestarts for this query.
func WithMaxRestarts(n int) RunOption {
	return func(o *RunOptions) {
		if n < 0 {
			n = 0
		}
		o.MaxRestarts = n
	}
}

// WithPlan compiles this query under the given plan options. It is the
// only way to set them: one loaded cluster serves every variant of an A/B.
func WithPlan(po plan.Options) RunOption {
	return func(o *RunOptions) { o.Plan = po }
}

// resolveRunOptions applies opts over the defaults.
func resolveRunOptions(opts ...RunOption) RunOptions {
	o := RunOptions{MaxRestarts: DefaultMaxRestarts}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// RunContext executes a query across the cluster and returns the
// coordinator's result rows. It is the single run entry point: each
// attempt runs under a context derived from ctx (the whole distributed run
// aborts when ctx is done, with an error matching engine.ErrCancelled),
// and a server lost mid-query is detected, evicted from the membership,
// and the query transparently recompiled and restarted on the survivors —
// up to WithMaxRestarts times, reported in QueryStats.Restarts.
//
// Queries submitted concurrently share the worker pools, multiplexers and
// network schedule; the engine interleaves their morsels fairly.
func (c *Cluster) RunContext(ctx context.Context, q *plan.Query, opts ...RunOption) (_ *storage.Batch, _ QueryStats, err error) {
	// Only the failure the caller sees is a query error; an attempt that is
	// transparently restarted is counted in mRestarts instead.
	defer func() {
		if err != nil {
			mQueryErrors.Inc()
		}
	}()
	o := resolveRunOptions(opts...)
	restarts := 0
	var failoverStart time.Time
	for {
		res, stats, att, err := c.runAttempt(ctx, q, o.Plan)
		if err == nil {
			stats.Restarts = restarts
			if restarts > 0 {
				mFailoverSeconds.ObserveDuration(time.Since(failoverStart))
			}
			return res, stats, nil
		}
		lost, isolated := att.lost()
		if len(lost) == 0 || ctx.Err() != nil {
			// Not a membership failure (bad plan, user cancellation, …):
			// surface as-is.
			return nil, QueryStats{}, err
		}
		err = fmt.Errorf("%w: %v", ErrServerLost, err)
		if isolated {
			// The coordinator cannot reach a majority of the membership: it
			// is the isolated side of the partition and must not evict the
			// (presumably healthy) rest. In a full system the surviving
			// majority would elect a new coordinator; here the failure is
			// surfaced.
			return nil, QueryStats{}, fmt.Errorf("cluster: coordinator isolated from %d of %d servers: %w",
				len(lost), len(att.nodes), err)
		}
		if restarts >= o.MaxRestarts {
			return nil, QueryStats{}, fmt.Errorf("cluster: giving up after %d restart(s): %w", restarts, err)
		}
		if failoverStart.IsZero() {
			failoverStart = time.Now()
		}
		for _, node := range lost {
			if evictErr := c.evictFailed(node); evictErr != nil {
				return nil, QueryStats{}, fmt.Errorf("cluster: restart impossible: %v: %w", evictErr, err)
			}
		}
		restarts++
		mRestarts.Inc()
	}
}

// attempt is one execution attempt's membership snapshot and the detector
// that watched it.
type attempt struct {
	nodes []*Node
	det   *detector
}

// lost returns the participants this attempt lost — the detector's
// suspects plus every node whose alive flag dropped (crashes are visible
// without a probe timeout) — and whether the coordinator itself is the
// isolated side.
func (a *attempt) lost() ([]*Node, bool) {
	out, isolated := a.det.verdict()
	for _, n := range a.nodes {
		if !n.alive.Load() && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out, isolated
}

// runAttempt executes the query once against the current membership. It
// holds the membership read lock for the whole attempt, so the node set,
// table placements and epoch are stable underneath it.
func (c *Cluster) runAttempt(ctx context.Context, q *plan.Query, po plan.Options) (*storage.Batch, QueryStats, *attempt, error) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	nodes := append([]*Node(nil), c.Nodes...)
	att := &attempt{nodes: nodes, det: c.det.Load()}

	var before []mux.Stats
	for _, n := range nodes {
		before = append(before, n.Mux.Stats())
	}

	// Every attempt gets a fresh cluster-wide id; the multiplexers route
	// messages on (QueryID, ExchangeID), so each query's exchange-id
	// sequence can start at zero — concurrent queries (and a restarted
	// attempt racing its predecessor's stragglers) never collide.
	qid := c.nextQueryID.Add(1)
	// The attempt's one abort: the caller's cancel, a failing server and
	// the detector all cancel actx, and the first cause wins.
	actx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	compileStart := time.Now()
	compiled, err := c.compileAll(nodes, q, qid, po)
	if err != nil {
		return nil, QueryStats{}, att, err
	}
	compileDur := time.Since(compileStart)
	defer func() {
		// Forget this query's exchanges, release what they still hold
		// (an aborted run's undrained receives and control rounds) and drop
		// any stragglers, so neither the multiplexer maps nor the pools
		// leak across queries.
		for _, node := range nodes {
			node.Mux.CloseQuery(qid)
		}
	}()
	if hook := c.cfg.PhaseHook; hook != nil {
		hook(sim.PhaseCompiled)
	}

	// A hung or partitioned server produces no error, only silence; the
	// mesh's detector turns that into a trip, which aborts every attached
	// attempt.
	if d := att.det; d != nil {
		defer context.AfterFunc(d.tripped, func() { abort(context.Cause(d.tripped)) })()
	}

	// One DAG scheduler per server node. A failing server cancels the
	// others so a bad operator aborts the query instead of deadlocking the
	// cluster on never-sent Last markers — but only this query: its context
	// is private, so concurrent queries are isolated from the failure.
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Bool
	pstats := make([][]engine.PipelineStat, len(nodes))
	for id, node := range nodes {
		wg.Add(1)
		go func(id int, node *Node) {
			defer wg.Done()
			st, err := node.Engine.RunGraph(compiled[id].Graph(), engine.RunOptions{
				Coordinator: id == 0,
				Context:     actx,
			})
			pstats[id] = st
			if err != nil {
				failed.Store(true)
				abort(fmt.Errorf("cluster: server %d: %w", id, err))
			}
		}(id, node)
	}
	if hook := c.cfg.PhaseHook; hook != nil {
		hook(sim.PhaseExecuting)
	}
	//lint:allow lockblock attempts hold only the read side of memMu (membership changes queue behind them by design), and the detector unwedges this wait by fencing dead peers (kill + PeerDown) without ever taking memMu
	wg.Wait()
	dur := time.Since(start)
	if failed.Load() {
		err := context.Cause(actx)
		if ctx.Err() != nil && !errors.Is(err, engine.ErrCancelled) {
			// The caller cancelled: whatever came first, the query reads
			// as cancelled.
			err = fmt.Errorf("cluster: query %w: %w", engine.ErrCancelled, err)
		}
		return nil, QueryStats{}, att, err
	}

	mQueries.Inc()
	mCompileSeconds.ObserveDuration(compileDur)
	mExecSeconds.ObserveDuration(dur)
	stats := QueryStats{
		Duration:      compileDur + dur,
		Compile:       compileDur,
		Exec:          dur,
		PipelineStats: pstats,
	}
	if obs.Enabled() {
		stats.Trace = buildTrace(qid, len(nodes), compileDur, pstats)
	}
	for _, st := range pstats {
		stats.ServerOverlap = append(stats.ServerOverlap, engine.OverlapRatio(st))
	}
	for id, n := range nodes {
		s := n.Mux.Stats()
		stats.BytesSent += s.BytesSent - before[id].BytesSent
		stats.MessagesSent += s.MsgsSent - before[id].MsgsSent
		stats.StolenMsgs += s.StolenMsgs - before[id].StolenMsgs
		stats.LocalMsgs += s.LocalMsgs - before[id].LocalMsgs
	}
	result := compiled[0].Result.Flatten(compiled[0].Schema)
	return result, stats, att, nil
}
