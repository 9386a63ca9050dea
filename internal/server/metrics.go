package server

import (
	"sort"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/metrics"
	"svwsim/internal/sim/engine"
)

// serverMetrics is svwd's scrape surface (GET /metrics): the per-stage
// latency histograms the handlers feed directly, plus func-backed views
// over the store, gate, engine and routing counters the daemon already
// keeps — one source of truth, two read paths (/v1/stats JSON and
// Prometheus text). The routing series keep the svwctl_ prefix they were
// introduced under.
type serverMetrics struct {
	reg  *metrics.Registry
	http *metrics.HTTP

	// Per-stage latency: where a request's time actually goes. store_probe
	// covers store lookups, store_peer checkpoint reads from owners, gate_wait
	// the admission acquire, engine_run the simulation work, encode the
	// marshalling of results the request computed.
	storeProbe *metrics.Histogram
	storePeer  *metrics.Histogram
	gateWait   *metrics.Histogram
	engineRun  *metrics.Histogram
	encode     *metrics.Histogram

	// slow counts requests past the -slow-ms threshold per traced
	// endpoint (the trace subsystem's OnSlow hook feeds it).
	slow map[string]*metrics.Counter
}

// onSlow bumps svw_slow_requests_total for one slow-logged request.
func (m *serverMetrics) onSlow(endpoint string) {
	if c, ok := m.slow[endpoint]; ok {
		c.Inc()
	}
}

// newServerMetrics builds the registry over a fully constructed Server.
// clientWeights (may be nil) names the tenants that get per-client gate
// occupancy gauges.
func newServerMetrics(s *Server, clientWeights map[string]int) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg, http: metrics.NewHTTP(reg)}

	stage := func(name string) *metrics.Histogram {
		return reg.Histogram("svw_stage_seconds",
			"Time spent per request-serving stage.", metrics.LatencyBuckets(),
			metrics.Label{Key: "stage", Value: name})
	}
	m.storeProbe = stage("store_probe")
	m.storePeer = stage("store_peer")
	m.gateWait = stage("gate_wait")
	m.engineRun = stage("engine_run")
	m.encode = stage("encode")

	// Registered eagerly for the traced endpoints so the series scrape as
	// 0 before the first slow request, like every other counter here.
	m.slow = make(map[string]*metrics.Counter)
	for _, ep := range []string{"/v1/run", "/v1/sweep", "/v1/studies"} {
		m.slow[ep] = reg.Counter("svw_slow_requests_total",
			"Requests slower than the -slow-ms threshold, by endpoint.",
			metrics.Label{Key: "endpoint", Value: ep})
	}

	reg.GaugeFunc("svw_gate_in_use", "Admission gate units currently held.",
		func() float64 { return float64(s.gate.stats().InUse) })
	reg.GaugeFunc("svw_gate_capacity", "Admission gate capacity (0 = unlimited).",
		func() float64 { return float64(s.gate.stats().Capacity) })
	reg.CounterFunc("svw_gate_rejected_total", "Requests refused with HTTP 429.",
		func() uint64 { return s.gate.stats().Rejected })

	// Per-tenant occupancy for the configured (named) clients, so a
	// dashboard shows which tenant is eating its share. Sorted for a
	// deterministic scrape order.
	names := make([]string, 0, len(clientWeights))
	for name := range clientWeights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		reg.GaugeFunc("svw_gate_client_in_use",
			"Admission gate units held per configured client.",
			func() float64 { return float64(s.gate.clientInUse(name)) },
			metrics.Label{Key: "client", Value: name})
	}

	tier := func(name string, fn func() uint64) {
		reg.CounterFunc("svw_store_requests_total",
			"Served results by store tier (miss = freshly computed).", fn,
			metrics.Label{Key: "tier", Value: name})
	}
	tier(api.CacheMemory, func() uint64 { return s.store.Stats().Hits })
	tier(api.CacheDisk, func() uint64 { return s.store.Stats().DiskHits })
	tier(api.CachePeer, func() uint64 { return s.store.Stats().PeerHits })
	tier(api.CacheMiss, func() uint64 { return s.store.Stats().Misses })
	reg.GaugeFunc("svw_store_entries", "Result store memory-tier entries.",
		func() float64 { return float64(s.store.Stats().Entries) })
	reg.GaugeFunc("svw_store_disk_bytes", "Result store disk-tier bytes.",
		func() float64 { return float64(s.store.Stats().Disk.Bytes) })
	reg.CounterFunc("svw_store_evictions_total", "Result store memory-tier evictions.",
		func() uint64 { return s.store.Stats().Evictions })
	reg.CounterFunc("svw_store_promotion_evictions_total",
		"Result store memory-tier evictions forced by disk-hit promotions.",
		func() uint64 { return s.store.Stats().PromotionEvictions })
	reg.CounterFunc("svw_store_promotions_deferred_total",
		"Result store disk hits served without promotion into the full memory tier.",
		func() uint64 { return s.store.Stats().PromotionsDeferred })
	reg.CounterFunc("svw_store_disk_corrupt_total",
		"Result store disk-tier entries dropped by validation (header, checksum, key).",
		func() uint64 { return s.store.Stats().Disk.Corrupt })
	reg.CounterFunc("svw_store_coalesced_total",
		"Singleflight waits: requests that shared an in-flight identical computation.",
		func() uint64 { return s.store.Stats().Coalesced })
	reg.GaugeFunc("svw_store_writebehind_depth",
		"Write-behind queue entries not yet landed on disk.",
		func() float64 { return float64(s.store.Stats().WriteBehind.Depth) })
	reg.CounterFunc("svw_store_writebehind_flushes_total",
		"Write-behind batches flushed (one directory sync each).",
		func() uint64 { return s.store.Stats().WriteBehind.Flushes })
	reg.CounterFunc("svw_store_writebehind_drops_total",
		"Disk writes dropped by a full write-behind queue.",
		func() uint64 { return s.store.Stats().WriteBehind.Drops })

	reg.CounterFunc("svw_engine_memo_hits_total", "Engine memo-table hits.",
		func() uint64 { return s.engineStats().MemoHits })
	reg.CounterFunc("svw_engine_memo_misses_total", "Engine memo-table misses (executions).",
		func() uint64 { return s.engineStats().MemoMisses })
	// Process-wide: a warm cell of a registry or study machine is keyed
	// from its interned digest, so this stays flat under warm load.
	reg.CounterFunc("svw_config_digests_total",
		"Machine configuration digests (SHA-256) computed to key cells.",
		engine.ConfigDigests)

	routing := func(name, help string, read func(api.ClusterStats) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return read(s.clusterStats()) })
	}
	routing("svwctl_runs_total", "Client /v1/run requests.",
		func(st api.ClusterStats) uint64 { return st.Runs })
	routing("svwctl_sweeps_total", "Client /v1/sweep requests.",
		func(st api.ClusterStats) uint64 { return st.Sweeps })
	routing("svwctl_jobs_total", "Cells a member answered (each counted once).",
		func(st api.ClusterStats) uint64 { return st.Jobs })
	routing("svwctl_job_errors_total", "Cells no member could answer.",
		func(st api.ClusterStats) uint64 { return st.JobErrors })
	routing("svwctl_retries_total", "Cell moves to the next member after a failed forward.",
		func(st api.ClusterStats) uint64 { return st.Retries })
	reg.GaugeFunc("svwctl_backends_healthy", "Members not marked down.",
		func() float64 { return float64(s.clusterStats().BackendsHealthy) })
	return m
}

// registerMember adds url's per-member series: forwards, errors and down
// marks by member URL, so a dashboard sees which member of the fabric is
// misbehaving without parsing /v1/stats JSON. The series look the member
// up by URL at scrape time, so a removed member scrapes as zeros and one
// that rejoins resumes from zero; the registry ignores a re-registration.
func (s *Server) registerMember(url string) {
	reg := s.metrics.reg
	row := func() api.ClusterBackendStats {
		_, members, _ := s.peers.snapshot()
		for _, m := range members {
			if m.url == url {
				return m.snapshot(time.Now())
			}
		}
		return api.ClusterBackendStats{}
	}
	l := metrics.Label{Key: "backend", Value: url}
	counter := func(name, help string, read func(api.ClusterBackendStats) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return read(row()) }, l)
	}
	counter("svwctl_backend_requests_total", "Batches forwarded to the member.",
		func(b api.ClusterBackendStats) uint64 { return b.Requests })
	counter("svwctl_backend_errors_total", "Forwarded batches that failed.",
		func(b api.ClusterBackendStats) uint64 { return b.Errors })
	reg.GaugeFunc("svwctl_backend_in_flight", "Forwards currently in flight to the member.",
		func() float64 { return float64(row().InFlight) }, l)
	reg.GaugeFunc("svwctl_backend_healthy", "Whether the member is not marked down (0/1).",
		func() float64 {
			if row().Healthy {
				return 1
			}
			return 0
		}, l)
	counter("svwctl_backend_health_flaps_total", "Down marks a failed forward put on the member while it was up.",
		func(b api.ClusterBackendStats) uint64 { return b.HealthFlaps })
	counter("svwctl_backend_jobs_ok_total", "Cells the member answered.",
		func(b api.ClusterBackendStats) uint64 { return b.JobsOK })
	counter("svwctl_backend_cache_hits_total", "Cells the member answered from its memory tier.",
		func(b api.ClusterBackendStats) uint64 { return b.CacheHits })
	counter("svwctl_backend_disk_hits_total", "Cells the member answered from its disk tier.",
		func(b api.ClusterBackendStats) uint64 { return b.DiskHits })
	counter("svwctl_backend_peer_hits_total", "Cells the member answered from another member.",
		func(b api.ClusterBackendStats) uint64 { return b.PeerHits })
}
