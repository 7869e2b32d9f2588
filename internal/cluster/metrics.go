package cluster

import (
	"fmt"
	"strings"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/obs"
)

// Cluster-level metrics on the process-wide registry.
var (
	mQueries = obs.Default().Counter("hsqp_cluster_queries_total",
		"Distributed query runs completed successfully.")
	mQueryErrors = obs.Default().Counter("hsqp_cluster_query_errors_total",
		"Queries that surfaced a failure or cancellation to the caller (transparently restarted attempts count as restarts).")
	mEpoch = obs.Default().Gauge("hsqp_cluster_epoch",
		"Data epoch: bumped on every table (re)load; caches key on it.")
	mCompileSeconds = obs.Default().Histogram("hsqp_cluster_compile_seconds",
		"Plan compilation latency across all servers of a run.", nil)
	mExecSeconds = obs.Default().Histogram("hsqp_cluster_exec_seconds",
		"Distributed execution wall time (excludes compile and queueing).", nil)
	mQueueWaitSeconds = obs.Default().Histogram("hsqp_cluster_queue_wait_seconds",
		"Admission-queue wait before an execution slot was granted.", nil)
	mSessionQueued = obs.Default().Gauge("hsqp_cluster_session_queued",
		"Queries waiting for an admission slot across sessions.")
	mSessionRunning = obs.Default().Gauge("hsqp_cluster_session_running",
		"Queries holding an execution slot across sessions.")
	mRestarts = obs.Default().Counter("hsqp_cluster_query_restarts_total",
		"Transparent query restarts after a server loss.")
	mMembershipChanges = obs.Default().Counter("hsqp_cluster_membership_changes_total",
		"Completed membership changes (joins, removals and evictions).")
	mActiveServers = obs.Default().Gauge("hsqp_cluster_active_servers",
		"Servers in the current membership.")
	mFailoverSeconds = obs.Default().Histogram("hsqp_cluster_failover_seconds",
		"Time from first detected server loss to the restarted query's success.", nil)
	mDetectorProbes = obs.Default().Counter("hsqp_cluster_detector_probes_total",
		"Explicit liveness probes the failure detector sent to silent servers.")
	mDetectorSuspicions = obs.Default().Counter("hsqp_cluster_detector_suspicions_total",
		"Servers the failure detector declared lost and fenced.")
)

// buildTrace assembles the per-query distributed trace from data the run
// already collected: the compile interval and every server's per-pipeline
// wall intervals (with exchange finalize sub-spans). Span offsets are
// relative to compile start; Session.RunContext shifts the whole trace and
// prepends the admission-queue span. Cost is one small allocation per
// pipeline after the query finished — nothing on the execution hot path.
func buildTrace(qid int32, servers int, compileDur time.Duration, pstats [][]engine.PipelineStat) *obs.Trace {
	tr := obs.NewTrace(uint64(qid))
	tr.ControlPID = servers
	tr.SetProcessName(servers, "coordinator")
	tr.SetThreadName(servers, 0, "control")
	tr.Add(obs.Span{
		Name: "compile", Cat: "compile", PID: servers, TID: 0,
		Start: 0, Dur: compileDur,
	})
	for id, stats := range pstats {
		tr.SetProcessName(id, fmt.Sprintf("server %d", id))
		for pi, p := range stats {
			if p.Skipped || p.End <= p.Start {
				continue
			}
			tid := pi + 1
			tr.SetThreadName(id, tid, p.Name)
			cat := "pipeline"
			if strings.HasPrefix(p.SinkName, "send(") {
				cat = "exchange"
			}
			args := map[string]any{
				"morsels":  p.Morsels,
				"busy_ms":  float64(p.Busy) / float64(time.Millisecond),
				"sink":     p.SinkName,
				"sinkRows": p.SinkRows,
			}
			if p.SinkBytes > 0 {
				args["wireBytes"] = p.SinkBytes
			}
			tr.Add(obs.Span{
				Name: p.Name, Cat: cat, PID: id, TID: tid,
				Start: compileDur + p.Start, Dur: p.End - p.Start, Args: args,
			})
			if p.Finalize > 0 {
				// Finalize is the tail of the pipeline interval: exchange
				// sends flush their last buffers and Last markers here.
				fcat := "finalize"
				if cat == "exchange" {
					fcat = "exchange-finalize"
				}
				tr.Add(obs.Span{
					Name: p.SinkName + " finalize", Cat: fcat, PID: id, TID: tid,
					Start: compileDur + p.End - p.Finalize, Dur: p.Finalize,
				})
			}
		}
	}
	return tr
}
