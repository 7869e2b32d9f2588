package cluster

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hsqp/internal/obs"
	"hsqp/internal/queries"
	"hsqp/internal/tpch"
)

// TestQueryTraceCoverage is the tracing acceptance gate: a 3-server Q12
// run through a Session must produce a trace whose span tree covers the
// admission queue, compilation, every non-skipped pipeline on every
// server, and the exchange sends — and the rendered Chrome JSON must be
// loadable.
func TestQueryTraceCoverage(t *testing.T) {
	const sf = 0.02
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t)
	c.LoadTPCH(db, false)

	s := c.NewSession(SessionConfig{MaxConcurrent: 2})
	defer s.Close()
	q := queries.MustBuild(12, queries.Params{SF: sf})
	_, stats, err := s.RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	tr := stats.Trace
	if tr == nil {
		t.Fatal("QueryStats.Trace is nil with observability enabled")
	}

	if n := tr.SpanCount("queue"); n != 1 {
		t.Errorf("queue spans = %d, want 1", n)
	}
	if n := tr.SpanCount("compile"); n != 1 {
		t.Errorf("compile spans = %d, want 1", n)
	}
	if tr.SpanCount("exchange") == 0 {
		t.Error("no exchange-send spans in trace")
	}

	// Every pipeline that did work on any server must appear as a span
	// under that server's pid.
	type key struct {
		pid  int
		name string
	}
	spans := map[key]bool{}
	for _, sp := range tr.Spans {
		spans[key{sp.PID, sp.Name}] = true
	}
	for id, ps := range stats.PipelineStats {
		for _, p := range ps {
			if p.Skipped || p.End <= p.Start {
				continue
			}
			if !spans[key{id, p.Name}] {
				t.Errorf("server %d pipeline %q missing from trace", id, p.Name)
			}
		}
	}

	// Phase ordering: queue starts at 0, compile right after, execution
	// spans after compile.
	for _, sp := range tr.Spans {
		switch sp.Cat {
		case "queue":
			if sp.Start != 0 {
				t.Errorf("queue span starts at %v, want 0", sp.Start)
			}
		case "pipeline", "exchange":
			if sp.Start < stats.QueueWait+stats.Compile {
				t.Errorf("span %q starts at %v, before queue+compile (%v)",
					sp.Name, sp.Start, stats.QueueWait+stats.Compile)
			}
		}
	}

	// The rendered JSON must be a loadable Chrome trace with our spans in.
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) < len(tr.Spans) {
		t.Fatalf("JSON has %d events for %d spans", len(doc.TraceEvents), len(tr.Spans))
	}
}

// TestTraceDisabled pins the -noobs contract: with observability off, no
// trace is built (and nothing panics for callers that check).
func TestTraceDisabled(t *testing.T) {
	const sf = 0.01
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t)
	c.LoadTPCH(db, false)

	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	_, stats, err := c.RunContext(context.Background(), queries.MustBuild(12, queries.Params{SF: sf}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil {
		t.Fatal("trace built with observability disabled")
	}
}
