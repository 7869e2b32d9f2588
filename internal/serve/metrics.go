package serve

import (
	"io"

	"hsqp/internal/obs"
)

// Serving-tier metrics on the process-wide registry. Event-driven
// counters and histograms update inline; point-in-time gauges (queue
// depth, latency percentiles, cache occupancy) are set by a collect hook
// the Server registers under the "serve" key, so they are computed once
// per scrape instead of per request.
var (
	mConns = obs.Default().Gauge("hsqp_serve_connections_active",
		"Client connections currently open.")
	mBytesIn = obs.Default().Counter("hsqp_serve_bytes_in_total",
		"Bytes read from client connections.")
	mBytesOut = obs.Default().Counter("hsqp_serve_bytes_out_total",
		"Bytes written to client connections.")
	mRequests = obs.Default().CounterVec("hsqp_serve_requests_total",
		"Exec requests handled, by tenant.", "tenant")
	mSlowQueries = obs.Default().Counter("hsqp_serve_slow_queries_total",
		"Requests that crossed the slow-query threshold.")

	mQueueWait = obs.Default().HistogramVec("hsqp_serve_queue_wait_seconds",
		"Admission-queue wait per request, by tenant.", nil, "tenant")
	mTotalLatency = obs.Default().HistogramVec("hsqp_serve_request_seconds",
		"End-to-end request latency, by tenant.", nil, "tenant")
	mServed = obs.Default().CounterVec("hsqp_serve_qos_served_total",
		"Requests completed and counted in the tenant's latency stats.", "tenant")

	mQueueDepth = obs.Default().GaugeVec("hsqp_serve_qos_queue_depth",
		"Requests waiting in the tenant's line of the session's admission queue.", "tenant")
	mTenantWeight = obs.Default().GaugeVec("hsqp_serve_qos_weight",
		"Configured stride-scheduling weight, by tenant.", "tenant")
	mQueueP50 = obs.Default().GaugeVec("hsqp_serve_qos_queue_p50_seconds",
		"p50 admission-queue wait over the tenant's recent-latency window.", "tenant")
	mQueueP99 = obs.Default().GaugeVec("hsqp_serve_qos_queue_p99_seconds",
		"p99 admission-queue wait over the tenant's recent-latency window.", "tenant")
	mTotalP50 = obs.Default().GaugeVec("hsqp_serve_qos_total_p50_seconds",
		"p50 total request latency over the tenant's recent-latency window.", "tenant")
	mTotalP99 = obs.Default().GaugeVec("hsqp_serve_qos_total_p99_seconds",
		"p99 total request latency over the tenant's recent-latency window.", "tenant")

	mResultHits = obs.Default().Counter("hsqp_serve_resultcache_hits_total",
		"Result-cache hits (encoded bytes replayed, no execution).")
	mResultMisses = obs.Default().Counter("hsqp_serve_resultcache_misses_total",
		"Result-cache misses (request executed and filled the cache).")
	mResultShared = obs.Default().Counter("hsqp_serve_resultcache_shared_total",
		"Single-flight followers that shared an in-flight execution.")
	mResultEvictions = obs.Default().Counter("hsqp_serve_resultcache_evictions_total",
		"Entries evicted by the result cache's byte budget.")
	mResultEntries = obs.Default().Gauge("hsqp_serve_resultcache_entries",
		"Completed results currently cached.")
	mResultBytes = obs.Default().Gauge("hsqp_serve_resultcache_bytes",
		"Bytes held by the result cache.")
)

// registerCollect binds the snapshot gauges to this server instance. The
// keyed hook replaces any previous server's binding, so reconstructing a
// server (tests, restarts) never accumulates stale closures.
func (s *Server) registerCollect() {
	obs.Default().OnCollect("serve", func() {
		for _, ts := range s.TenantStats() {
			mQueueDepth.With(ts.Tenant).Set(float64(ts.Queued))
			mTenantWeight.With(ts.Tenant).Set(float64(ts.Weight))
			mQueueP50.With(ts.Tenant).Set(ts.QueueP50.Seconds())
			mQueueP99.With(ts.Tenant).Set(ts.QueueP99.Seconds())
			mTotalP50.With(ts.Tenant).Set(ts.TotalP50.Seconds())
			mTotalP99.With(ts.Tenant).Set(ts.TotalP99.Seconds())
		}
		rc := s.ResultCacheStats()
		mResultEntries.Set(float64(rc.Entries))
		mResultBytes.Set(float64(rc.Bytes))
	})
}

// countingReader / countingWriter wrap a connection's two directions with
// byte counters (placed under the bufio layers, so they count wire bytes,
// not buffered writes).
type countingReader struct{ r io.Reader }

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		mBytesIn.Add(uint64(n))
	}
	return n, err
}

type countingWriter struct{ w io.Writer }

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		mBytesOut.Add(uint64(n))
	}
	return n, err
}
