package cluster

import (
	"sync"

	"svwsim/internal/api"
	"svwsim/internal/metrics"
)

// clusterMetrics is svwctl's scrape surface (GET /metrics): the shared
// per-endpoint HTTP series plus func-backed views over the coordinator's
// own dispatch counters and the per-backend breakdown — retries, hedges
// and health flaps per backend URL, so a dashboard sees which member of
// the fabric is misbehaving without parsing /v1/stats JSON.
type clusterMetrics struct {
	reg  *metrics.Registry
	http *metrics.HTTP
	c    *Coordinator

	// slow counts requests past the -slow-ms threshold per traced
	// endpoint (the trace subsystem's OnSlow hook feeds it).
	slow map[string]*metrics.Counter

	// seen tracks which backend URLs already have per-backend series. The
	// pool is mutable, so the series resolve the backend by URL at scrape
	// time (a removed member scrapes as zeros; re-adding it resumes real
	// values) — they must not capture *backend pointers, which would pin a
	// departed member's counters forever.
	mu   sync.Mutex
	seen map[string]bool
}

// onSlow bumps svw_slow_requests_total for one slow-logged request.
func (m *clusterMetrics) onSlow(endpoint string) {
	if c, ok := m.slow[endpoint]; ok {
		c.Inc()
	}
}

// newClusterMetrics builds the registry over a fully constructed pool.
func newClusterMetrics(c *Coordinator) *clusterMetrics {
	reg := metrics.NewRegistry()
	m := &clusterMetrics{reg: reg, http: metrics.NewHTTP(reg), c: c, seen: make(map[string]bool)}

	// Registered eagerly for the traced endpoints so the series scrape as
	// 0 before the first slow request, like every other counter here.
	m.slow = make(map[string]*metrics.Counter)
	for _, ep := range []string{"/v1/run", "/v1/sweep", "/v1/studies"} {
		m.slow[ep] = reg.Counter("svw_slow_requests_total",
			"Requests slower than the -slow-ms threshold, by endpoint.",
			metrics.Label{Key: "endpoint", Value: ep})
	}

	coord := func(name, help string, fn func() uint64) {
		reg.CounterFunc(name, help, fn)
	}
	locked := func(read func() uint64) func() uint64 {
		return func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return read()
		}
	}
	coord("svwctl_runs_total", "Client /v1/run requests.", locked(func() uint64 { return c.runs }))
	coord("svwctl_sweeps_total", "Client /v1/sweep requests.", locked(func() uint64 { return c.sweeps }))
	coord("svwctl_jobs_total", "Client jobs completed (each counted once).",
		locked(func() uint64 { return c.jobs }))
	coord("svwctl_job_errors_total", "Client jobs that failed terminally.",
		locked(func() uint64 { return c.jobErrors }))
	coord("svwctl_retries_total", "Forwarding attempts beyond each walk's first.",
		locked(func() uint64 { return c.retries }))
	coord("svwctl_hedges_total", "Speculative duplicate attempts launched for stragglers.",
		locked(func() uint64 { return c.hedges }))
	coord("svwctl_hedge_wins_total", "Hedged attempts whose response was used.",
		locked(func() uint64 { return c.hedgeWins }))
	reg.GaugeFunc("svwctl_backends_healthy", "Backends currently presumed healthy.",
		func() float64 { return float64(c.healthyCount()) })

	for _, b := range c.members.snapshot() {
		m.ensureBackend(b.url)
	}
	return m
}

// ensureBackend registers the per-backend series for url once. Called for
// the boot-time pool and from every successful AddBackend; the metrics
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

	// stats resolves the CURRENT member with this URL at scrape time; a
	// removed backend reads as the zero value (counter reset — the usual
	// Prometheus restart semantics) until it rejoins.
	stats := func() api.ClusterBackendStats {
		if b := m.c.members.get(url); b != nil {
			return b.stats()
		}
		return api.ClusterBackendStats{}
	}
	l := metrics.Label{Key: "backend", Value: url}
	m.reg.CounterFunc("svwctl_backend_requests_total",
		"Requests forwarded to the backend, including retries and hedges.",
		func() uint64 { return stats().Requests }, l)
	m.reg.CounterFunc("svwctl_backend_errors_total",
		"Forwarded requests that failed (transport errors and 5xx).",
		func() uint64 { return stats().Errors }, l)
	m.reg.GaugeFunc("svwctl_backend_in_flight",
		"Coordinator requests currently in flight to the backend.",
		func() float64 { return float64(stats().InFlight) }, l)
	m.reg.GaugeFunc("svwctl_backend_healthy",
		"Whether the backend is currently presumed healthy (0/1).",
		func() float64 {
			if stats().Healthy {
				return 1
			}
			return 0
		}, l)
	m.reg.CounterFunc("svwctl_backend_health_flaps_total",
		"Health-state transitions observed for the backend.",
		func() uint64 { return stats().HealthFlaps }, l)
	m.reg.CounterFunc("svwctl_backend_jobs_ok_total",
		"Jobs whose winning response came from the backend.",
		func() uint64 { return stats().JobsOK }, l)
	m.reg.CounterFunc("svwctl_backend_cache_hits_total",
		"Winning responses the backend served from its memory tier.",
		func() uint64 { return stats().CacheHits }, l)
	m.reg.CounterFunc("svwctl_backend_disk_hits_total",
		"Winning responses the backend served from its disk tier.",
		func() uint64 { return stats().DiskHits }, l)
	m.reg.CounterFunc("svwctl_backend_peer_hits_total",
		"Winning responses the backend fetched from a peer's store.",
		func() uint64 { return stats().PeerHits }, l)
}
