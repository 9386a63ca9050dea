// Package cluster scales the svwd simulation service out horizontally:
// the svwctl coordinator fronts N svwd backends behind the same JSON/HTTP
// surface (/v1/run, /v1/sweep, /v1/healthz, /v1/stats, /v1/configs,
// /v1/benches, /v1/studies/*), so clients — svwload, curl, dashboards —
// are unchanged whether they talk to one backend or a fabric of them.
//
// The fabric's moving parts:
//
//   - routing: every job is placed by rendezvous hashing on its engine
//     memo key (engine.Fingerprint — the same key svwd's result store
//     uses), so repeated jobs always land on the same backend and its
//     caches stay hot, and a backend-set change only
//     remaps the keys the departed backend owned (see routing.go);
//   - fan-out: sweeps flatten into job order exactly like svwd and
//     svwsim, and each rendezvous owner gets one cells-form /v1/sweep
//     carrying the cells it owns, under bounded per-backend concurrency;
//     the replies merge back in job-index order, buffered or as SSE, so
//     cluster output is byte-identical to `svwsim -json`;
//   - resilience: backends are health-checked (background probes plus
//     passive marking on request failures); a run is a one-cell batch,
//     and a one-cell batch walks the key's rendezvous order, retrying on
//     the next-ranked backend; a failed multi-cell batch re-walks its
//     cells one by one as one-cell batches — cells-form /v1/sweep is the
//     only job route to svwd — and optional hedging duplicates a
//     straggling batch onto the fallback after a configurable delay,
//     first response winning;
//   - observability: /v1/stats aggregates the pool's store/engine/
//     admission counters and adds a cluster section (per-backend health,
//     requests, errors, jobs won, memory/disk cache hits, retry/hedge
//     counts). Each client job is counted exactly once however many
//     attempts it took.
//
// Result caching and coalescing live in the backends, where the routing
// affinity makes them effective — with one exception: started with Options.StoreDir, the
// coordinator opens its own tiered result store (internal/store, the same
// subsystem svwd and svwsim use) as a last-resort read-through. A job
// whose every backend attempt failed is answered from that store when a
// previous run — this coordinator's own write-through, or a CLI sweep
// pre-warming the directory — left the result behind, so a fabric whose
// backends are all down can still serve everything it has ever computed.
package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/store"
	"svwsim/internal/trace"
)

// Defaults for Options zero values.
const (
	DefaultBackendConcurrency = 8
	DefaultMaxBodyBytes       = 1 << 20 // 1 MiB
	DefaultMaxSweepJobs       = 4096
	DefaultProbeTimeout       = 2 * time.Second
	// DefaultResponseHeaderTimeout bounds how long one forwarded attempt
	// waits for a backend to start answering. svwd sends headers only
	// after the job computes (for a sweep batch, after all of its cells
	// do), so the bound must sit above the longest legitimate job or
	// batch — it exists to reclaim dispatch slots from a backend
	// that accepted the connection and then hung (half-dead process, wedged
	// accept queue), which before this bound pinned a slot forever on
	// requests without an api.DeadlineHeader budget.
	DefaultResponseHeaderTimeout = 2 * time.Minute
)

// Options configures a Coordinator. Backends is required; every other
// zero value falls back to a production-usable default.
type Options struct {
	// Backends are the svwd base URLs to front (e.g. "http://10.0.0.1:7411").
	// Order does not matter: placement depends only on the URL set.
	Backends []string
	// BackendConcurrency caps the coordinator's in-flight requests — sweep
	// batches, one-cell ones included — per backend
	// (0 = DefaultBackendConcurrency).
	BackendConcurrency int
	// MaxAttempts bounds forwarding attempts per job, counting the first
	// (0 = 2 × len(Backends), min 2). Attempts walk the key's rendezvous
	// order, healthy backends first, then fail open to unhealthy ones.
	MaxAttempts int
	// HedgeAfter launches a speculative duplicate of a forwarded request —
	// a sweep batch as a whole, a run's one-cell batch, a study — on its
	// next-ranked backend when the primary has not answered within this
	// delay; the first response wins (0 = hedging disabled). A walking
	// hedge shares its request's MaxAttempts budget.
	HedgeAfter time.Duration
	// MaxBodyBytes bounds request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxSweepJobs bounds one sweep's flattened matrix
	// (0 = DefaultMaxSweepJobs).
	MaxSweepJobs int
	// Client optionally overrides the HTTP client used to reach backends
	// (nil = a client with a connection pool sized to the fabric and
	// ResponseHeaderTimeout applied).
	Client *http.Client
	// ResponseHeaderTimeout bounds how long the built-in backend client
	// waits for response headers on one attempt; past it the attempt fails
	// and the walk retries the key's next-ranked backend
	// (0 = DefaultResponseHeaderTimeout, < 0 disables the bound). Ignored
	// when Client is set.
	ResponseHeaderTimeout time.Duration
	// StoreDir roots the coordinator's own result store ("" = none). Run
	// and sweep results computed through the fabric are written through to
	// it, and jobs whose every backend attempt fails are served from it.
	StoreDir string
	// StoreMaxBytes caps the store's disk tier
	// (0 = store.DefaultDiskMaxBytes).
	StoreMaxBytes int64
	// TraceBufferSize is how many completed request traces GET
	// /debug/traces keeps (0 = trace.DefaultRingSize). The job-bearing
	// endpoints (/v1/run, /v1/sweep, /v1/studies) are traced; the trace ID
	// is forwarded to backends on every attempt, so one ID correlates the
	// coordinator's dispatch spans with each backend's stage spans.
	TraceBufferSize int
	// SlowLogEnabled turns on structured slow-request logging: a traced
	// request slower than SlowLogThreshold emits one JSON line (with its
	// full span tree) and bumps svw_slow_requests_total{endpoint}. Off by
	// default.
	SlowLogEnabled bool
	// SlowLogThreshold is the slow-request bar; zero logs every traced
	// request.
	SlowLogThreshold time.Duration
	// SlowLogWriter receives slow-request lines (nil = os.Stderr).
	SlowLogWriter io.Writer
	// DefaultSample, when enabled, is the sampling spec stamped onto run
	// and sweep requests that carry none of their own, before forwarding —
	// backends always see an explicit spec, so a fabric-wide default never
	// depends on each backend's own configuration. Request-level Sample*
	// fields win. The zero value forwards unmarked requests unchanged.
	DefaultSample pipeline.SampleSpec
}

// backend is one svwd instance in the pool.
type backend struct {
	url string
	sem chan struct{} // per-backend in-flight bound

	mu        sync.Mutex
	healthy   bool
	lastErr   error
	inFlight  int
	requests  uint64
	errors    uint64
	jobsOK    uint64
	cacheHits uint64
	diskHits  uint64
	peerHits  uint64
	flaps     uint64 // health-state transitions
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// setHealth flips the backend's health state (err annotates an unhealthy
// transition for stats/debugging). State changes count as flaps, so a
// backend oscillating between marks is visible even when every probe of
// the moment happens to succeed.
func (b *backend) setHealth(healthy bool, err error) {
	b.mu.Lock()
	if healthy != b.healthy {
		b.flaps++
	}
	b.healthy = healthy
	b.lastErr = err
	b.mu.Unlock()
}

// noteStart accounts one forwarded request beginning.
func (b *backend) noteStart() {
	b.mu.Lock()
	b.inFlight++
	b.requests++
	b.mu.Unlock()
}

// noteEnd accounts a request finishing; failed marks a transport/5xx
// failure.
func (b *backend) noteEnd(failed bool) {
	b.mu.Lock()
	b.inFlight--
	if failed {
		b.errors++
	}
	b.mu.Unlock()
}

// noteWin accounts a winning response — the one actually returned to the
// client; origin is the backend's CacheHeader value, attributing memory-,
// disk- and peer-tier hits separately. Called once per dispatch, so a
// retried or hedged job still scores exactly one win.
func (b *backend) noteWin(origin string) {
	b.mu.Lock()
	b.jobsOK++
	switch origin {
	case api.CacheMemory:
		b.cacheHits++
	case api.CacheDisk:
		b.diskHits++
	case api.CachePeer:
		b.peerHits++
	}
	b.mu.Unlock()
}

func (b *backend) stats() api.ClusterBackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := api.ClusterBackendStats{
		URL:         b.url,
		Healthy:     b.healthy,
		InFlight:    b.inFlight,
		Requests:    b.requests,
		Errors:      b.errors,
		JobsOK:      b.jobsOK,
		CacheHits:   b.cacheHits,
		DiskHits:    b.diskHits,
		PeerHits:    b.peerHits,
		HealthFlaps: b.flaps,
	}
	if b.lastErr != nil {
		st.LastError = b.lastErr.Error()
	}
	return st
}

// Coordinator is the svwctl fabric: a stateless router/merger over a pool
// of svwd backends. Create with New; it is safe for concurrent use, and
// the pool itself is mutable at runtime (membership.go): AddBackend /
// RemoveBackend / SetBackends, surfaced over AdminHandler and svwctl's
// SIGHUP reload.
type Coordinator struct {
	members membership
	client  *http.Client
	store   *store.Store // nil without Options.StoreDir
	metrics *clusterMetrics
	tracer  *trace.Tracer
	// maxAttempts > 0 is the explicit Options value; 0 sizes the budget to
	// the pool at each dispatch (2 × members, min 2), so the budget tracks
	// membership changes instead of freezing at the boot-time pool size.
	maxAttempts  int
	hedgeAfter   time.Duration
	maxBody      int64
	maxSweepJobs int
	start        time.Time
	draining     atomic.Bool

	// defaultSample is stamped onto unmarked run/sweep requests before
	// forwarding (Options.DefaultSample).
	defaultSample pipeline.SampleSpec

	mu        sync.Mutex
	runs      uint64
	sweeps    uint64
	jobs      uint64
	jobErrors uint64
	retries   uint64
	hedges    uint64
	hedgeWins uint64
}

// New builds a Coordinator over opts.Backends (at least one required).
// Backends start out presumed healthy; probes and request outcomes adjust
// the presumption from there.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	if err := opts.DefaultSample.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: default sample spec: %w", err)
	}
	conc := opts.BackendConcurrency
	if conc <= 0 {
		conc = DefaultBackendConcurrency
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts < 0 {
		maxAttempts = 0 // auto: sized to the pool per dispatch
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	maxSweep := opts.MaxSweepJobs
	if maxSweep <= 0 {
		maxSweep = DefaultMaxSweepJobs
	}
	client := opts.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = conc
		rht := opts.ResponseHeaderTimeout
		if rht == 0 {
			rht = DefaultResponseHeaderTimeout
		}
		if rht > 0 {
			tr.ResponseHeaderTimeout = rht
		}
		client = &http.Client{Transport: tr}
	}
	var st *store.Store
	if opts.StoreDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: opts.StoreDir, MaxBytes: opts.StoreMaxBytes})
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool, len(opts.Backends))
	c := &Coordinator{
		members:       membership{conc: conc},
		client:        client,
		store:         st,
		tracer:        trace.NewTracer(opts.TraceBufferSize),
		maxAttempts:   maxAttempts,
		hedgeAfter:    opts.HedgeAfter,
		maxBody:       maxBody,
		maxSweepJobs:  maxSweep,
		start:         time.Now(),
		defaultSample: opts.DefaultSample,
	}
	for _, u := range opts.Backends {
		if u == "" || seen[u] {
			return nil, fmt.Errorf("cluster: empty or duplicate backend URL %q", u)
		}
		seen[u] = true
	}
	if _, _, err := c.members.reconcile(opts.Backends, nil); err != nil {
		return nil, err
	}
	c.metrics = newClusterMetrics(c)
	if opts.SlowLogEnabled {
		c.tracer.Slow = &trace.SlowLog{
			Threshold: opts.SlowLogThreshold,
			W:         opts.SlowLogWriter,
			OnSlow:    c.metrics.onSlow,
		}
	}
	return c, nil
}

// SetDraining marks the coordinator as draining: /v1/healthz flips to 503
// so load balancers stop routing to the process while in-flight requests
// finish (the same drain contract svwd has).
func (c *Coordinator) SetDraining(v bool) { c.draining.Store(v) }

// healthyCount returns how many backends are currently presumed healthy.
func (c *Coordinator) healthyCount() int {
	return healthyIn(c.members.snapshot())
}

// healthyIn counts the healthy members of one pool snapshot, so dispatch
// paths judge health over the same set they rank over.
func healthyIn(pool []*backend) int {
	n := 0
	for _, b := range pool {
		if b.isHealthy() {
			n++
		}
	}
	return n
}

// attemptsBudget is the per-job forwarding-attempt bound for a pool of n
// backends: the explicit Options.MaxAttempts when set, else 2 × n (min 2)
// computed against the dispatch's own snapshot.
func (c *Coordinator) attemptsBudget(n int) int {
	if c.maxAttempts > 0 {
		return c.maxAttempts
	}
	if n < 1 {
		n = 1
	}
	return 2 * n
}

// Handler returns the fabric's routing handler, suitable for http.Server.
// The surface mirrors internal/server's exactly, including the
// instrumented routes and the Prometheus scrape on GET /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, fn http.HandlerFunc) {
		mux.Handle(pattern, c.metrics.http.Wrap(endpoint, fn))
	}
	// traced routes open a request trace inside the metrics wrapper, so
	// the recorded spans cover exactly what the latency histogram times.
	traced := func(pattern, endpoint string, fn http.HandlerFunc) {
		mux.Handle(pattern, c.metrics.http.Wrap(endpoint, c.tracer.Wrap(endpoint, fn)))
	}
	handle("GET /v1/healthz", "/v1/healthz", c.handleHealthz)
	handle("GET /v1/configs", "/v1/configs", c.handleConfigs)
	handle("GET /v1/benches", "/v1/benches", c.handleBenches)
	handle("GET /v1/stats", "/v1/stats", c.handleStats)
	traced("POST /v1/run", "/v1/run", c.handleRun)
	traced("POST /v1/sweep", "/v1/sweep", c.handleSweep)
	traced("GET /v1/studies/{study}", "/v1/studies", c.handleStudy)
	mux.Handle("GET /metrics", c.metrics.reg.Handler())
	mux.Handle("GET /debug/traces", c.tracer.TracesHandler())
	return mux
}

// counters below are tiny and hot; one mutex keeps them race-clean.

func (c *Coordinator) addRun()   { c.mu.Lock(); c.runs++; c.mu.Unlock() }
func (c *Coordinator) addSweep() { c.mu.Lock(); c.sweeps++; c.mu.Unlock() }

// addJob accounts one client job's final outcome — exactly once per job,
// however many forwarding attempts or hedges it took.
func (c *Coordinator) addJob(failed bool) {
	c.mu.Lock()
	if failed {
		c.jobErrors++
	} else {
		c.jobs++
	}
	c.mu.Unlock()
}

func (c *Coordinator) addRetry() { c.mu.Lock(); c.retries++; c.mu.Unlock() }
func (c *Coordinator) addHedge() { c.mu.Lock(); c.hedges++; c.mu.Unlock() }
func (c *Coordinator) addHedgeWin() {
	c.mu.Lock()
	c.hedgeWins++
	c.mu.Unlock()
}

func (c *Coordinator) clusterStats() api.ClusterStats {
	c.mu.Lock()
	st := api.ClusterStats{
		Runs:      c.runs,
		Sweeps:    c.sweeps,
		Jobs:      c.jobs,
		JobErrors: c.jobErrors,
		Retries:   c.retries,
		Hedges:    c.hedges,
		HedgeWins: c.hedgeWins,
	}
	c.mu.Unlock()
	pool := c.members.snapshot()
	st.BackendsTotal = len(pool)
	if c.store != nil {
		ss := api.StoreCacheStats(c.store.Stats())
		st.Store = &ss
	}
	for _, b := range pool {
		bs := b.stats()
		if bs.Healthy {
			st.BackendsHealthy++
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}
