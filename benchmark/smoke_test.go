package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeSF keeps one round of all four workloads, set up four times each,
// within a few seconds. It is the smallest usable scale factor: below
// 0.008 tpch.Generate emits duplicate (ps_partkey, ps_suppkey) pairs, a
// key violation on which the engine's join and the reference's map
// legitimately disagree (Q9).
const smokeSF = 0.008

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameMetrics(t *testing.T, got map[string]metric, want []contractMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json lists %s, the run does not report it", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: run reports unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload through both kinds of run, and every
// probe, for one round at a tiny scale factor. It asserts what must hold
// at any speed: every result correct, and exactly the metrics
// BENCHMARK.json promises, with its units.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	if len(c.EndToEnd) != len(bounds) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, --compare knows %d", len(c.EndToEnd), len(bounds))
	}
	for i, bd := range bounds {
		if m := c.EndToEnd[i]; m.Name != bd.name || m.Bound != bd.bound || (m.Better == "lower") != bd.lower {
			t.Errorf("--compare has %+v where BENCHMARK.json has %+v", bd, m)
		}
	}
	for _, cw := range c.Workloads {
		w := findWorkload(cw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json lists workload %s, the benchmark has none", cw.Name)
			continue
		}
		timed, err := runTimed(w, smokeSF, 7, time.Nanosecond)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		if !timed.Correct || timed.Attempted == 0 {
			t.Errorf("%s timed: %d of %d operations failed", w.name, timed.Failed, timed.Attempted)
		}
		sameMetrics(t, timed.Metrics, c.EndToEnd)

		spans := filepath.Join(t.TempDir(), "spans.json")
		traced, err := runTraced(w, smokeSF, 7, time.Nanosecond, spans)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct || traced.Attempted == 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, traced.Failed, traced.Attempted)
		}
		sameMetrics(t, traced.Metrics, c.PerLayer)
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if data, err := os.ReadFile(spans); err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: span file holds %d events (%v)", w.name, len(doc.TraceEvents), err)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range qps {
			rec := record{Workload: "w", result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"throughput_qps": {v, "ops/s"}}}}
			if err := appendLine(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 100, 101, 99)
	for _, c := range []struct {
		name  string
		qps   []float64
		worse bool
	}{{"same.jsonl", []float64{100, 100, 99}, false}, {"slow.jsonl", []float64{80, 81, 79}, true}} {
		worse, err := compareFiles(io.Discard, base, write(c.name, c.qps...))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v", c.name, worse, c.worse)
		}
	}
}
