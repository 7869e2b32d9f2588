package serve

import (
	"sort"
	"sync"
	"time"
)

// latWindow is how many recent requests per tenant feed the latency
// percentiles.
const latWindow = 1024

// tenantLatencies keeps each tenant's served count and a ring of its most
// recent queue-wait and total latencies (SLO stats). It times whole
// requests, result-cache hits included, which the session's queue never
// sees; queue depth and weight are read from the session.
type tenantLatencies struct {
	mu      sync.Mutex
	tenants map[string]*latencyRing
}

type latencyRing struct {
	served     uint64
	queueWaits []time.Duration
	totals     []time.Duration
	next       int
}

// newTenantLatencies starts with an empty entry per configured tenant, so
// they are reported before their first request.
func newTenantLatencies(configured map[string]int) *tenantLatencies {
	l := &tenantLatencies{tenants: map[string]*latencyRing{}}
	for name := range configured {
		l.tenants[name] = &latencyRing{}
	}
	return l
}

// Observe records one completed request's queue wait and total latency
// for the tenant's SLO stats.
func (l *tenantLatencies) Observe(tenant string, queueWait, total time.Duration) {
	mQueueWait.With(tenant).ObserveDuration(queueWait)
	mTotalLatency.With(tenant).ObserveDuration(total)
	mServed.With(tenant).Inc()
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.tenants[tenant]
	if !ok {
		r = &latencyRing{}
		l.tenants[tenant] = r
	}
	r.served++
	if len(r.totals) < latWindow {
		r.queueWaits = append(r.queueWaits, queueWait)
		r.totals = append(r.totals, total)
	} else {
		r.queueWaits[r.next] = queueWait
		r.totals[r.next] = total
		r.next = (r.next + 1) % latWindow
	}
}

// TenantStats is one tenant's serving-path SLO snapshot.
type TenantStats struct {
	Tenant   string
	Weight   int
	Served   uint64
	Queued   int
	QueueP50 time.Duration
	QueueP99 time.Duration
	TotalP50 time.Duration
	TotalP99 time.Duration
}

// Snapshot returns per-tenant latency stats sorted by tenant name; Weight
// and Queued are the caller's to fill.
func (l *tenantLatencies) Snapshot() []TenantStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TenantStats, 0, len(l.tenants))
	for name, r := range l.tenants {
		//lint:allow wiredeterminism sorted below by tenant name, the unique map key, so the comparator is total
		out = append(out, TenantStats{
			Tenant:   name,
			Served:   r.served,
			QueueP50: quantile(r.queueWaits, 0.50),
			QueueP99: quantile(r.queueWaits, 0.99),
			TotalP50: quantile(r.totals, 0.50),
			TotalP99: quantile(r.totals, 0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// quantile is the nearest-rank percentile over an unsorted sample window.
func quantile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
