package cluster

import (
	"context"
	"errors"
	"time"

	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// ErrOverloaded is returned by Session.RunContext when the execution slots
// are busy and the tenant's bounded admission queue is full: the caller
// should back off and retry instead of piling more work onto a saturated
// cluster.
var ErrOverloaded = errors.New("cluster: session overloaded: admission queue full")

// ErrSessionClosed is returned by Session.RunContext after Close, and by
// queries still queued when Close is called: a draining session fails its
// queue fast instead of starting new work.
var ErrSessionClosed = errors.New("cluster: session closed")

// SessionConfig tunes a Session's admission control.
type SessionConfig struct {
	// MaxConcurrent is how many queries may execute on the cluster at once
	// through this session. Zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueued bounds how many additional queries of one tenant may wait
	// for a slot; a query arriving when its tenant has that many waiting
	// fails fast with ErrOverloaded. Without WithTenant every query is the
	// same tenant, so this is the bound on the whole queue. Zero means
	// 4×MaxConcurrent.
	MaxQueued int
	// Tenants maps tenant name → weight for weighted-fair slot handout
	// among queries labelled WithTenant. Tenants absent from the map get
	// weight 1.
	Tenants map[string]int
}

// DefaultMaxConcurrent is the default number of in-flight queries per
// session.
const DefaultMaxConcurrent = 4

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.MaxConcurrent
	}
	return cfg
}

// Session executes queries concurrently on one cluster with bounded
// admission: at most MaxConcurrent queries run at a time, at most
// MaxQueued more per tenant wait in line, and anything beyond that is
// rejected with ErrOverloaded so overload degrades into queueing (then fast
// rejection) instead of thrashing the worker pools. Waiting queries are
// granted slots weighted-fair across tenants and in arrival order within
// one (see slotQueue). A Session is safe for concurrent use by many
// goroutines — it is the "millions of users" front door.
type Session struct {
	c *Cluster
	q *slotQueue
}

// NewSession creates a session on the cluster.
func (c *Cluster) NewSession(cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	return &Session{c: c, q: newSlotQueue(cfg.MaxConcurrent, cfg.MaxQueued, cfg.Tenants)}
}

// Queued reports how many queries are waiting for an execution slot.
func (s *Session) Queued() int {
	waiting, _ := s.q.depth()
	return waiting
}

// Running reports how many queries hold an execution slot right now.
func (s *Session) Running() int {
	_, running := s.q.depth()
	return running
}

// TenantQueue reports a tenant's weight and how many of its queries are
// waiting for a slot.
func (s *Session) TenantQueue(tenant string) (weight, queued int) { return s.q.load(tenant) }

// RunContext executes one query through the session's admission control.
// It blocks while the query is queued or running and returns the
// coordinator's result rows; ErrOverloaded is returned immediately when
// the tenant's queue is full. ctx cancellation aborts the query whether it
// is still queued or already executing; WithTenant selects whose queue the
// query waits in. The returned QueryStats records the admission wait in
// QueueWait.
func (s *Session) RunContext(ctx context.Context, q *plan.Query, opts ...RunOption) (*storage.Batch, QueryStats, error) {
	o := resolveRunOptions(opts...)
	queued := time.Now()
	mSessionQueued.Add(1)
	slot, err := s.q.acquire(ctx, o.Tenant)
	mSessionQueued.Add(-1)
	if err != nil {
		return nil, QueryStats{}, err
	}
	mSessionRunning.Add(1)
	defer func() {
		mSessionRunning.Add(-1)
		s.q.release(slot)
	}()
	wait := time.Since(queued)
	mQueueWaitSeconds.ObserveDuration(wait)

	res, stats, err := s.c.RunContext(ctx, q, opts...)
	stats.QueueWait = wait
	if stats.Trace != nil {
		// Make room for the admission phase at the front of the timeline
		// so the trace shows the full serving-path latency split.
		stats.Trace.Shift(wait)
		stats.Trace.Add(obs.Span{
			Name: "queue", Cat: "queue",
			PID: stats.Trace.ControlPID, TID: 0,
			Start: 0, Dur: wait,
		})
	}
	return res, stats, err
}

// Close marks the session closed and drains it: queries already holding an
// execution slot run to completion, queries still waiting in the admission
// queue fail fast with ErrSessionClosed, and new RunContext calls are
// rejected. Close returns once every outstanding call has finished. The
// underlying cluster stays open.
func (s *Session) Close() {
	s.q.close()
	s.q.calls.Wait()
}
