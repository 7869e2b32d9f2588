package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// ErrOverloaded is returned by Session.RunContext when both the execution
// slots and the bounded admission queue are full: the caller should back
// off and retry instead of piling more work onto a saturated cluster.
var ErrOverloaded = errors.New("cluster: session overloaded: admission queue full")

// ErrSessionClosed is returned by Session.RunContext after Close, and by
// queries still queued when Close is called: a draining session fails its
// queue fast instead of starting new work.
var ErrSessionClosed = errors.New("cluster: session closed")

// Admission orders queued queries for execution slots, replacing the
// session's flat FIFO handout. Implementations decide which waiting query
// runs next (e.g. the serving tier's per-tenant weighted-fair scheduler).
type Admission interface {
	// Acquire blocks until the query may execute and returns a release
	// function for its slot. Closing cancel abandons the wait; the
	// returned error is surfaced to the caller.
	Acquire(tenant string, cancel <-chan struct{}) (release func(), err error)
}

// SessionConfig tunes a Session's admission control.
type SessionConfig struct {
	// MaxConcurrent is how many queries may execute on the cluster at once
	// through this session. Zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueued bounds how many additional queries may wait for a slot.
	// A query arriving when MaxConcurrent are running and MaxQueued are
	// waiting fails fast with ErrOverloaded. Zero means 4×MaxConcurrent;
	// negative means no queue (immediate rejection when slots are busy).
	MaxQueued int
	// Admission, when set, replaces the FIFO slot handout: every query
	// passes through Admission.Acquire (with its WithTenant label, ""
	// without one) instead of the built-in slot channel. MaxConcurrent
	// and MaxQueued are ignored; the controller owns both bounds.
	Admission Admission
}

// DefaultMaxConcurrent is the default number of in-flight queries per
// session.
const DefaultMaxConcurrent = 4

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	switch {
	case cfg.MaxQueued == 0:
		cfg.MaxQueued = 4 * cfg.MaxConcurrent
	case cfg.MaxQueued < 0:
		cfg.MaxQueued = 0
	}
	return cfg
}

// Session executes queries concurrently on one cluster with bounded
// admission: at most MaxConcurrent queries run at a time, at most
// MaxQueued more wait in line, and anything beyond that is rejected with
// ErrOverloaded so overload degrades into queueing (then fast rejection)
// instead of thrashing the worker pools. A Session is safe for concurrent
// use by many goroutines — it is the "millions of users" front door.
type Session struct {
	c   *Cluster
	cfg SessionConfig

	// tickets has capacity MaxConcurrent+MaxQueued and gates admission
	// (fast-fail when full); slots has capacity MaxConcurrent and gates
	// execution (queued queries block here, in FIFO-ish channel order).
	tickets chan struct{}
	slots   chan struct{}

	// closing is closed by Close so queries still waiting for a slot fail
	// fast with ErrSessionClosed while in-flight queries run to completion.
	closing chan struct{}

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// Observability counters for the serving tier: queries waiting for a
	// slot and queries currently executing.
	queued  atomic.Int32
	running atomic.Int32
}

// NewSession creates a session on the cluster.
func (c *Cluster) NewSession(cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	return &Session{
		c:       c,
		cfg:     cfg,
		tickets: make(chan struct{}, cfg.MaxConcurrent+cfg.MaxQueued),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		closing: make(chan struct{}),
	}
}

// Queued reports how many queries are waiting for an execution slot.
func (s *Session) Queued() int { return int(s.queued.Load()) }

// Running reports how many queries hold an execution slot right now.
func (s *Session) Running() int { return int(s.running.Load()) }

// RunContext executes one query through the session's admission control.
// It blocks while the query is queued or running and returns the
// coordinator's result rows; ErrOverloaded is returned immediately when
// the admission queue is full. ctx cancellation aborts the query whether
// it is still queued or already executing; WithTenant selects whose
// admission queue the query waits in when the session has an Admission
// controller. The returned QueryStats records the admission wait in
// QueueWait.
func (s *Session) RunContext(ctx context.Context, q *plan.Query, opts ...RunOption) (*storage.Batch, QueryStats, error) {
	o := resolveRunOptions(opts...)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, QueryStats{}, ErrSessionClosed
	}
	s.wg.Add(1)
	ticketed := false
	if s.cfg.Admission == nil {
		select {
		case s.tickets <- struct{}{}:
			ticketed = true
		default:
			s.wg.Done()
			s.mu.Unlock()
			return nil, QueryStats{}, ErrOverloaded
		}
	}
	s.mu.Unlock()
	defer func() {
		if ticketed {
			<-s.tickets
		}
		s.wg.Done()
	}()

	queued := time.Now()
	release, err := s.acquire(o.Tenant, ctx.Done())
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer release()
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

// acquire waits for an execution slot: through the Admission controller
// when configured, otherwise on the built-in slot channel. A close of the
// session fails queued waiters fast; a query cancel while queued surfaces
// the same sentinel as a cancel during execution, so
// errors.Is(err, engine.ErrCancelled) works regardless of which phase the
// cancellation raced with.
func (s *Session) acquire(tenant string, cancel <-chan struct{}) (func(), error) {
	s.queued.Add(1)
	mSessionQueued.Add(1)
	defer func() {
		s.queued.Add(-1)
		mSessionQueued.Add(-1)
	}()
	granted := func(release func()) func() {
		s.running.Add(1)
		mSessionRunning.Add(1)
		return func() {
			s.running.Add(-1)
			mSessionRunning.Add(-1)
			release()
		}
	}
	if adm := s.cfg.Admission; adm != nil {
		// Merge query cancel and session close into the one channel the
		// controller watches.
		stop := make(chan struct{})
		var stopOnce sync.Once
		closeStop := func() { stopOnce.Do(func() { close(stop) }) }
		defer closeStop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cancel:
			case <-s.closing:
			case <-done:
			}
			closeStop()
		}()
		release, err := adm.Acquire(tenant, stop)
		if err == nil {
			return granted(release), nil
		}
		select {
		case <-s.closing:
			return nil, ErrSessionClosed
		default:
		}
		select {
		case <-cancel:
			return nil, fmt.Errorf("cluster: query cancelled while queued: %w", engine.ErrCancelled)
		default:
		}
		return nil, err
	}

	// Admitted (ticket held by the caller for the query's whole lifetime):
	// wait, bounded by the ticket count, for an execution slot. A nil
	// cancel channel blocks forever in the select, which is exactly the
	// uncancellable case.
	select {
	case s.slots <- struct{}{}:
		return granted(func() { <-s.slots }), nil
	case <-s.closing:
		return nil, ErrSessionClosed
	case <-cancel:
		return nil, fmt.Errorf("cluster: query cancelled while queued: %w", engine.ErrCancelled)
	}
}

// Close marks the session closed and drains it: queries already holding an
// execution slot run to completion, queries still waiting in the admission
// queue fail fast with ErrSessionClosed, and new RunContext calls are
// rejected. Close returns once every outstanding call has finished. The
// underlying cluster stays open.
func (s *Session) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
