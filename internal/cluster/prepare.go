package cluster

import (
	"context"
	"slices"

	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// Prepared is a query validated against the cluster: the query, the result
// schema its compilation determined, and the run options it was validated
// under. It holds no compiled state — exchange state is per query id, so
// every run compiles the plan on every server again — and therefore
// cannot go stale: a run after a table load or membership change compiles
// against the placements of that moment, like any other run. What Prepare
// buys is discovering unknown tables or columns, and learning the result
// schema, before the first execution.
//
// A Prepared is safe for concurrent use: the plan tree is immutable during
// compilation and execution, so many callers may run one handle at once.
type Prepared struct {
	c      *Cluster
	q      *plan.Query
	schema *storage.Schema
	// opts are the run options Prepare validated with; every execution
	// applies them first.
	opts []RunOption
}

// Prepare validates the query by compiling it on every server (the same
// compile path RunContext uses, under the plan options in opts), releases
// the validation run's exchange state, and returns a handle that remembers
// opts.
func (c *Cluster) Prepare(q *plan.Query, opts ...RunOption) (*Prepared, error) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	qid := c.nextQueryID.Add(1)
	compiled, err := c.compileAll(c.Nodes, q, qid, resolveRunOptions(opts...).Plan)
	if err != nil {
		return nil, err
	}
	// The validation compile opened real exchange state on every
	// multiplexer; nothing ran, so closing the query id frees all of it.
	for _, n := range c.Nodes {
		n.Mux.CloseQuery(qid)
	}
	return &Prepared{c: c, q: q, schema: compiled[0].Schema, opts: opts}, nil
}

// Schema returns the result schema determined at prepare time.
func (p *Prepared) Schema() *storage.Schema { return p.schema }

// RunContext executes the query under the options it was prepared with,
// followed by opts.
func (p *Prepared) RunContext(ctx context.Context, opts ...RunOption) (*storage.Batch, QueryStats, error) {
	return p.c.RunContext(ctx, p.q, slices.Concat(p.opts, opts)...)
}
