// Package server exposes the experiment engine as a JSON-over-HTTP
// simulation service (the svwd daemon):
//
//	GET  /v1/healthz             liveness (503 while draining)
//	GET  /v1/store/{key}         one checksummed store entry (checkpoint reads)
//	GET  /v1/configs             configuration registry listing
//	GET  /v1/benches             benchmark kernel listing
//	GET  /v1/stats               cache / engine / admission counters
//	POST /v1/run                 one (config, bench, insts) job
//	POST /v1/sweep               a config × bench matrix; SSE streaming
//	GET  /v1/studies/{study}     ladder | fig8 | ssn | ssbf
//
// Every job-bearing endpoint reaches the service layers below through one
// cell resolver (handlers.go): /v1/run resolves a one-job list, /v1/sweep
// the flattened matrix (buffered or streamed), and /v1/studies a study
// descriptor's jobs (internal/sim), whose decoded cell results it then
// reduces. The store and its flights are the process's only result cache
// and singleflight: the cells a request leads run on an engine.Engine
// built for that batch alone, whose counters the server adds into its
// /v1/stats totals. The layers:
//
//   - the shared tiered result store (internal/store) keyed per cell by
//     the engine's memo key (engine.Fingerprint): a bounded in-memory LRU,
//     optionally backed by a persistent disk tier (Options.StoreDir) so a
//     restarted daemon answers previously computed work without touching
//     the engine — hit/disk-hit/miss counters are on /v1/stats and the
//     serving tier is named in the X-Svwd-Cache response header;
//   - the fabric (peers.go): when the membership is known, a cell another
//     member owns goes to that owner, one batch per owner, and a failed
//     owner's cells walk on to the next member — svwctl is a Server whose
//     members are the backends and which is not one of them itself;
//   - a per-cell singleflight, so concurrent requests needing the same
//     uncomputed cell run it once;
//   - an admission gate bounding concurrently admitted engine jobs,
//     refusing excess work with HTTP 429 (cache hits bypass the gate);
//   - per-request context cancellation threaded into the engine, so a
//     disconnected client's queued-but-unstarted jobs are skipped;
//   - request body size limits (HTTP 413 past the cap).
//
// /v1/run and /v1/sweep responses use exactly the `svwsim -json` encoding,
// so service output can be byte-compared against the CLI; study endpoints
// return the study reports' JSON, byte-identical to `svwexp -json`. Sweep
// requests with Accept: text/event-stream stream one SSE "result" event
// per job in job-index order — the engine's determinism guarantee carried
// over the wire — followed by a "done" summary event.
package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/metrics"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
	"svwsim/internal/trace"
)

// Defaults for Options zero values.
const (
	DefaultMaxConcurrentJobs = 256
	DefaultCacheEntries      = 4096
	DefaultMaxBodyBytes      = 1 << 20 // 1 MiB
	DefaultMaxSweepJobs      = 4096
)

// Options configures a Server. The zero value is production-usable: engine
// workers track GOMAXPROCS and the limits fall back to the Default*
// constants.
type Options struct {
	// Workers is the worker-pool size of each batch's engine
	// (0 = GOMAXPROCS).
	Workers int
	// MaxConcurrentJobs caps engine jobs admitted concurrently across all
	// requests; excess requests get HTTP 429 (0 = DefaultMaxConcurrentJobs,
	// < 0 = unlimited).
	MaxConcurrentJobs int
	// CacheEntries bounds the result store's in-memory tier
	// (0 = DefaultCacheEntries).
	CacheEntries int
	// StoreDir roots the result store's persistent tier; "" disables it
	// (memory-only, the previous behavior). Point a restarted daemon at
	// the same directory and previously computed sweeps are answered from
	// disk with zero engine executions.
	StoreDir string
	// StoreMaxBytes caps the persistent tier; least-recently-accessed
	// entries are GCed past it (0 = store.DefaultDiskMaxBytes).
	StoreMaxBytes int64
	// StoreWriteBehind, when > 0 and StoreDir is set, buffers disk writes
	// in a bounded queue of this many entries drained by a background
	// flusher (one directory sync per batch) instead of writing
	// synchronously per result. Drained by Close; 0 keeps writes
	// synchronous.
	StoreWriteBehind int
	// Peers statically configures the fabric member URLs that own the
	// keys (see peers.go): each cell this server misses goes to its
	// rendezvous owner among them. Empty routes nothing unless PeerLearn
	// adopts a membership payload.
	Peers []string
	// PeerSelf is this server's own URL within Peers — how it recognizes
	// keys it owns itself. A server that is not one of its Peers owns no
	// keys and computes nothing it can route (svwctl).
	PeerSelf string
	// PeerLearn adopts the membership payload (api.PeersHeader /
	// api.PeerSelfHeader) forwarded batches carry, so members learn the
	// sharding map from the work itself. Headers are trusted at face
	// value; enable only on trusted networks.
	PeerLearn bool
	// PeerReadTimeout bounds one checkpoint read from a peer
	// (0 = DefaultPeerReadTimeout).
	PeerReadTimeout time.Duration
	// ForwardHeaderTimeout bounds how long a forwarded batch waits for
	// its owner's response headers before the owner counts as failed
	// (0 = DefaultForwardHeaderTimeout, < 0 = no bound).
	ForwardHeaderTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxSweepJobs bounds one sweep's flattened matrix
	// (0 = DefaultMaxSweepJobs).
	MaxSweepJobs int
	// JobTimeout bounds each engine job's wall-clock time (0 = none).
	JobTimeout time.Duration
	// ClientWeights enables weighted fair admission: per-client shares of
	// the gate, keyed by the api.ClientHeader name (requests without the
	// header are attributed to their remote host). Each client is capped
	// at max(1, cap·w/W) gate units, W being DefaultClientWeight plus the
	// sum of configured weights, so no tenant can starve the others.
	// Empty = the single global gate (the previous behavior).
	ClientWeights map[string]int
	// DefaultClientWeight is the share weight of clients not named in
	// ClientWeights (0 = 1). Ignored when ClientWeights is empty.
	DefaultClientWeight int
	// TraceBufferSize is how many completed request traces GET
	// /debug/traces keeps (0 = trace.DefaultRingSize). The job-bearing
	// endpoints (/v1/run, /v1/sweep, /v1/studies) are always traced;
	// registry and health endpoints are not, so probes cannot flush
	// interesting traces out of the ring.
	TraceBufferSize int
	// SlowLogEnabled turns on structured slow-request logging: a traced
	// request slower than SlowLogThreshold emits one JSON line (with its
	// full span tree) and bumps svw_slow_requests_total{endpoint}. Off by
	// default.
	SlowLogEnabled bool
	// SlowLogThreshold is the slow-request bar; zero logs every traced
	// request (what the CI smoke stage runs with).
	SlowLogThreshold time.Duration
	// SlowLogWriter receives slow-request lines (nil = os.Stderr).
	SlowLogWriter io.Writer
	// DefaultSample, when enabled, is the sampling spec applied to /v1/run,
	// /v1/sweep and study requests that do not carry one of their own
	// (request-level Sample* fields and the ?sample= study parameter always
	// win). The zero value keeps every unmarked request exact.
	DefaultSample pipeline.SampleSpec
}

// Server is the svwd HTTP service: the store and admission layers over
// per-batch engines. Create with New; it is safe for concurrent use.
type Server struct {
	workers      int
	jobTimeout   time.Duration
	store        *store.Store
	gate         *gate
	metrics      *serverMetrics
	tracer       *trace.Tracer
	maxBody      int64
	maxSweepJobs int
	start        time.Time
	draining     atomic.Bool

	// Fabric state (peers.go): the membership view, the client forwards
	// and checkpoint reads go out on, and the routing counters.
	peers       *peerSet
	peerLearn   bool
	peerTimeout time.Duration
	peerClient  *http.Client
	routeMu     sync.Mutex
	routed      RouteStats

	// defaultSample is applied to requests that carry no sampling spec of
	// their own (Options.DefaultSample).
	defaultSample pipeline.SampleSpec

	// engMu guards engStats, the sum of every finished batch engine's
	// memo and sampling counters.
	engMu    sync.Mutex
	engStats api.EngineStats
}

// New builds a Server from opts (see Options for zero-value defaults). It
// fails when a configured StoreDir cannot be opened or DefaultSample is
// incoherent.
func New(opts Options) (*Server, error) {
	if err := opts.DefaultSample.Validate(); err != nil {
		return nil, fmt.Errorf("default sample spec: %w", err)
	}
	maxJobs := opts.MaxConcurrentJobs
	if maxJobs == 0 {
		maxJobs = DefaultMaxConcurrentJobs
	}
	if maxJobs < 0 {
		maxJobs = 0 // gate treats 0 as unlimited
	}
	cacheEntries := opts.CacheEntries
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	maxSweep := opts.MaxSweepJobs
	if maxSweep <= 0 {
		maxSweep = DefaultMaxSweepJobs
	}
	st, err := store.Open(store.Options{
		MemoryEntries: cacheEntries,
		Dir:           opts.StoreDir,
		MaxBytes:      opts.StoreMaxBytes,
		WriteBehind:   opts.StoreWriteBehind,
	})
	if err != nil {
		return nil, err
	}
	g := newGate(maxJobs)
	g.setWeights(opts.ClientWeights, opts.DefaultClientWeight)
	peerTimeout := opts.PeerReadTimeout
	if peerTimeout <= 0 {
		peerTimeout = DefaultPeerReadTimeout
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = forwardConns
	switch t := opts.ForwardHeaderTimeout; {
	case t == 0:
		tr.ResponseHeaderTimeout = DefaultForwardHeaderTimeout
	case t > 0:
		tr.ResponseHeaderTimeout = t
	}
	s := &Server{
		workers:       opts.Workers,
		jobTimeout:    opts.JobTimeout,
		store:         st,
		gate:          g,
		tracer:        trace.NewTracer(opts.TraceBufferSize),
		maxBody:       maxBody,
		maxSweepJobs:  maxSweep,
		start:         time.Now(),
		peers:         &peerSet{},
		peerLearn:     opts.PeerLearn,
		peerTimeout:   peerTimeout,
		peerClient:    &http.Client{Transport: tr},
		defaultSample: opts.DefaultSample,
	}
	s.peers.set(opts.Peers, opts.PeerSelf)
	s.metrics = newServerMetrics(s, opts.ClientWeights)
	if opts.SlowLogEnabled {
		s.tracer.Slow = &trace.SlowLog{
			Threshold: opts.SlowLogThreshold,
			W:         opts.SlowLogWriter,
			OnSlow:    s.metrics.onSlow,
		}
	}
	return s, nil
}

// forwardConns is how many idle connections to each member the forwarding
// client keeps.
const forwardConns = 8

// RouteStats counts the cells a server sent to other members.
type RouteStats struct {
	Answered uint64 // cells a member answered
	Failed   uint64 // cells no member answered, or whose request ended first
	Moved    uint64 // cell moves to the next member after a failed forward
}

// countRouted adds to the routing counters.
func (s *Server) countRouted(answered, failed, moved uint64) {
	s.routeMu.Lock()
	s.routed.Answered += answered
	s.routed.Failed += failed
	s.routed.Moved += moved
	s.routeMu.Unlock()
}

// Routing snapshots the routing counters and each member's forwarding
// state, in membership order.
func (s *Server) Routing() (RouteStats, []api.ClusterBackendStats) {
	s.routeMu.Lock()
	rs := s.routed
	s.routeMu.Unlock()
	_, members, _ := s.peers.snapshot()
	now := time.Now()
	rows := make([]api.ClusterBackendStats, len(members))
	for i, m := range members {
		rows[i] = m.snapshot(now)
	}
	return rs, rows
}

// SetPeers replaces the members cells are routed to, keeping PeerSelf. A
// member that stays keeps its forwarding state; in-flight walks finish
// over the members they started with.
func (s *Server) SetPeers(urls []string) {
	self, _ := s.peers.view()
	s.peers.set(urls, self)
}

// Registry is the server's metrics registry (GET /metrics), for an
// embedding process to add its own series to.
func (s *Server) Registry() *metrics.Registry { return s.metrics.reg }

// countEngine adds a finished batch engine's counters into the server's
// lifetime totals.
func (s *Server) countEngine(eng *engine.Engine) {
	m, sm := eng.Memo(), eng.Sample()
	s.engMu.Lock()
	s.engStats.Add(api.EngineStats{
		MemoHits:         m.Hits,
		MemoMisses:       m.Misses,
		FastForwards:     sm.FastForwards,
		FastForwardInsts: sm.FastForwardInsts,
		CheckpointHits:   sm.CheckpointHits,
		CheckpointMisses: sm.CheckpointMisses,
		CheckpointPuts:   sm.CheckpointPuts,
	})
	s.engMu.Unlock()
}

// engineStats snapshots the engine counters summed over every batch.
func (s *Server) engineStats() api.EngineStats {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	return s.engStats
}

// Close releases the server's background resources: the store's
// write-behind queue is drained (every completed result lands on disk)
// and the forwarding client's idle connections are closed. Call it on
// graceful shutdown, after the HTTP server has stopped accepting work.
func (s *Server) Close() error {
	s.peerClient.CloseIdleConnections()
	return s.store.Close()
}

// SetDraining marks the server as draining: /v1/healthz flips to 503 so
// load balancers stop routing to the process while in-flight requests
// finish. It does not reject other traffic — http.Server.Shutdown handles
// connection teardown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the service's routing handler, suitable for http.Server.
// Every /v1 route is instrumented with the shared request counter and
// latency histogram; the job-bearing routes (run, sweep, studies) are
// additionally traced, with the completed-trace ring on GET /debug/traces
// and the metrics registry on GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, fn http.HandlerFunc) {
		mux.Handle(pattern, s.metrics.http.Wrap(endpoint, fn))
	}
	// traced routes open a request trace inside the metrics wrapper, so
	// the recorded spans cover exactly what the latency histogram times.
	traced := func(pattern, endpoint string, fn http.HandlerFunc) {
		mux.Handle(pattern, s.metrics.http.Wrap(endpoint, s.tracer.Wrap(endpoint, fn)))
	}
	handle("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	handle("GET /v1/store/{key}", "/v1/store", s.handleStoreGet)
	handle("GET /v1/configs", "/v1/configs", s.handleConfigs)
	handle("GET /v1/benches", "/v1/benches", s.handleBenches)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	traced("POST /v1/run", "/v1/run", s.handleRun)
	traced("POST /v1/sweep", "/v1/sweep", s.handleSweep)
	traced("GET /v1/studies/{study}", "/v1/studies", s.handleStudy)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.Handle("GET /debug/traces", s.tracer.TracesHandler())
	return mux
}
