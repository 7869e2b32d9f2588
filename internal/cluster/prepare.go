package cluster

import (
	"context"
	"slices"

	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// Prepared is a query validated against the cluster once and executable
// many times — the prepare/execute split of a serving tier. Prepare pays
// the full per-server plan compilation up front (catching unknown tables
// or columns at prepare time, and building the plan's schema-specialized
// codecs into the process-wide cache), so later executions skip statement
// construction and validation entirely and reuse the warmed codecs: the
// compile cost is amortized across users the same way §2.2.2 amortizes
// message-buffer registration across sends.
//
// A Prepared is safe for concurrent use: the underlying plan tree is
// immutable during compilation and execution, so many sessions may Run
// the same handle at once.
type Prepared struct {
	c      *Cluster
	q      *plan.Query
	schema *storage.Schema
	epoch  uint64
	// opts are the run options Prepare validated with; every execution
	// applies them first.
	opts []RunOption
}

// Prepare validates the query by compiling it on every server (the same
// compile path RunContext uses, under the plan options in opts), releases
// the validation run's exchange state, and returns a reusable handle that
// remembers opts. The handle records the cluster epoch it
// was prepared against; see Stale. Compilation and the epoch read happen
// under one membership read lock, so the recorded epoch always matches
// the placements the plan was validated against — a concurrent table load
// either completes before the compile or after the epoch was read, never
// in between.
func (c *Cluster) Prepare(q *plan.Query, opts ...RunOption) (*Prepared, error) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	qid := c.nextQueryID.Add(1)
	compiled, err := c.compileAll(c.Nodes, q, qid, ResolveRunOptions(opts...).Plan, nil)
	if err != nil {
		return nil, err
	}
	// The validation compile opened real exchange state on every
	// multiplexer; nothing ran, so closing the query id frees all of it.
	for _, n := range c.Nodes {
		n.Mux.CloseQuery(qid)
	}
	return &Prepared{c: c, q: q, schema: compiled[0].Schema, epoch: c.Epoch(), opts: opts}, nil
}

// Query returns the underlying plan.
func (p *Prepared) Query() *plan.Query { return p.q }

// Schema returns the result schema determined at prepare time.
func (p *Prepared) Schema() *storage.Schema { return p.schema }

// Epoch returns the cluster epoch the statement was prepared against.
func (p *Prepared) Epoch() uint64 { return p.epoch }

// Stale reports whether the cluster's tables changed since Prepare; a
// plan cache should drop stale entries and re-prepare.
func (p *Prepared) Stale() bool { return p.epoch != p.c.Epoch() }

// RunContext executes the prepared query under the options it was prepared
// with, followed by opts. Every run still compiles the plan on every
// server (exchange state is per query id); what Prepare saved is building
// the statement, discovering its errors, and constructing its codecs.
func (p *Prepared) RunContext(ctx context.Context, opts ...RunOption) (*storage.Batch, QueryStats, error) {
	return p.c.RunContext(ctx, p.q, slices.Concat(p.opts, opts)...)
}
