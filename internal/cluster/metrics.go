package cluster

import (
	"sync"

	"svwsim/internal/api"
	"svwsim/internal/metrics"
)

// clusterMetrics adds svwctl's series to its server's scrape surface
// (GET /metrics): func-backed views over the routing counters and the
// per-backend breakdown — forwards, errors, down marks per backend URL, so
// a dashboard sees which member of the fabric is misbehaving without
// parsing /v1/stats JSON.
type clusterMetrics struct {
	reg *metrics.Registry
	c   *Coordinator

	// seen tracks which backend URLs already have per-backend series. The
	// pool is mutable, so the series resolve the backend by URL at scrape
	// time: a removed member scrapes as zeros, and a member that rejoins
	// resumes from zero.
	mu   sync.Mutex
	seen map[string]bool
}

func newClusterMetrics(c *Coordinator) *clusterMetrics {
	reg := c.srv.Registry()
	m := &clusterMetrics{reg: reg, c: c, seen: make(map[string]bool)}
	counter := func(name, help string, read func(api.ClusterStats) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return read(c.clusterStats()) })
	}
	counter("svwctl_runs_total", "Client /v1/run requests.",
		func(st api.ClusterStats) uint64 { return st.Runs })
	counter("svwctl_sweeps_total", "Client /v1/sweep requests.",
		func(st api.ClusterStats) uint64 { return st.Sweeps })
	counter("svwctl_jobs_total", "Cells a backend answered (each counted once).",
		func(st api.ClusterStats) uint64 { return st.Jobs })
	counter("svwctl_job_errors_total", "Cells no backend could answer.",
		func(st api.ClusterStats) uint64 { return st.JobErrors })
	counter("svwctl_retries_total", "Cell moves to the next backend after a failed forward.",
		func(st api.ClusterStats) uint64 { return st.Retries })
	reg.GaugeFunc("svwctl_backends_healthy", "Backends not marked down.",
		func() float64 { return float64(c.clusterStats().BackendsHealthy) })
	return m
}

// ensureBackend registers the per-backend series for url once. The
// registry dedups re-registration, and the closures look the member up by
// URL each scrape so membership churn never leaves them reading a stale
// pool entry.
func (m *clusterMetrics) ensureBackend(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[url] {
		return
	}
	m.seen[url] = true
	stats := func() api.ClusterBackendStats {
		for _, b := range m.c.clusterStats().Backends {
			if b.URL == url {
				return b
			}
		}
		return api.ClusterBackendStats{}
	}
	l := metrics.Label{Key: "backend", Value: url}
	counter := func(name, help string, read func(api.ClusterBackendStats) uint64) {
		m.reg.CounterFunc(name, help, func() uint64 { return read(stats()) }, l)
	}
	counter("svwctl_backend_requests_total", "Batches forwarded to the backend.",
		func(b api.ClusterBackendStats) uint64 { return b.Requests })
	counter("svwctl_backend_errors_total", "Forwarded batches that failed.",
		func(b api.ClusterBackendStats) uint64 { return b.Errors })
	m.reg.GaugeFunc("svwctl_backend_in_flight", "Forwards currently in flight to the backend.",
		func() float64 { return float64(stats().InFlight) }, l)
	m.reg.GaugeFunc("svwctl_backend_healthy", "Whether the backend is not marked down (0/1).",
		func() float64 {
			if stats().Healthy {
				return 1
			}
			return 0
		}, l)
	counter("svwctl_backend_health_flaps_total", "Down marks a failed forward put on the backend while it was up.",
		func(b api.ClusterBackendStats) uint64 { return b.HealthFlaps })
	counter("svwctl_backend_jobs_ok_total", "Cells the backend answered.",
		func(b api.ClusterBackendStats) uint64 { return b.JobsOK })
	counter("svwctl_backend_cache_hits_total", "Cells the backend answered from its memory tier.",
		func(b api.ClusterBackendStats) uint64 { return b.CacheHits })
	counter("svwctl_backend_disk_hits_total", "Cells the backend answered from its disk tier.",
		func(b api.ClusterBackendStats) uint64 { return b.DiskHits })
	counter("svwctl_backend_peer_hits_total", "Cells the backend answered from another member.",
		func(b api.ClusterBackendStats) uint64 { return b.PeerHits })
}
