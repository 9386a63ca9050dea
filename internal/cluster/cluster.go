// Package cluster is svwctl: an svwd (internal/server) whose members are
// the backends and whose own URL is not one of them, so it owns no keys
// and computes nothing. Each cell of a run, sweep or study goes to its
// rendezvous owner down svwd's one routing path — one cells-form
// /v1/sweep per owner, a failed owner's cells walking on to the next
// backend (internal/server/peers.go) — so a client cannot tell the fabric
// from one daemon, and svwd and svwctl cannot drift apart.
//
// What this package adds to that Server:
//
//   - the mapping from Options to server.Options;
//   - GET /v1/stats: the backends' own /v1/stats summed into the
//     single-node shape, plus the cluster section — svwctl's routing
//     counters and one row per backend;
//   - GET /v1/healthz with the pool state: "degraded" (503) while every
//     backend is marked down;
//   - SetBackends, for svwctl's SIGHUP reload and POST /admin/backends;
//   - the svwctl_* metric series on GET /metrics.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
)

// statsTimeout bounds one backend's /v1/stats fetch.
const statsTimeout = 2 * time.Second

// Options configures a Coordinator. Backends is required; every other
// zero value falls back to the matching server.Options default.
type Options struct {
	// Backends are the svwd base URLs to front (e.g. "http://10.0.0.1:7411").
	// Order does not matter: placement depends only on the URL set.
	Backends []string
	// MaxBodyBytes bounds request bodies (server.Options.MaxBodyBytes).
	MaxBodyBytes int64
	// MaxSweepJobs bounds one sweep's flattened matrix
	// (server.Options.MaxSweepJobs).
	MaxSweepJobs int
	// ResponseHeaderTimeout bounds how long a forwarded batch waits for
	// its backend's response headers (server.Options.ForwardHeaderTimeout).
	ResponseHeaderTimeout time.Duration
	// TraceBufferSize, SlowLogEnabled, SlowLogThreshold and SlowLogWriter
	// configure request tracing as for svwd (server.Options). The trace ID
	// travels with every forwarded batch, so one ID correlates svwctl's
	// forward spans with each backend's stage spans.
	TraceBufferSize  int
	SlowLogEnabled   bool
	SlowLogThreshold time.Duration
	SlowLogWriter    io.Writer
	// DefaultSample is the sampling spec of requests that carry none of
	// their own (server.Options.DefaultSample). A forwarded batch carries
	// its spec resolved, so the fabric-wide default never depends on each
	// backend's own configuration.
	DefaultSample pipeline.SampleSpec
}

// Coordinator is the svwctl fabric: a server.Server routing every cell to
// its backend, plus the pool-level surface above. Create with New; it is
// safe for concurrent use, and the pool is mutable at runtime
// (SetBackends).
type Coordinator struct {
	srv      *server.Server
	handler  http.Handler
	client   *http.Client // backend /v1/stats fetches
	start    time.Time
	draining atomic.Bool
	metrics  *clusterMetrics

	mu     sync.Mutex
	runs   uint64 // client /v1/run requests
	sweeps uint64 // client /v1/sweep requests
}

// New builds a Coordinator over opts.Backends (at least one required).
// Backends start out up; a failed forward marks one down for a second.
func New(opts Options) (*Coordinator, error) {
	urls, err := backendURLs(opts.Backends)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Peers:                urls,
		MaxBodyBytes:         opts.MaxBodyBytes,
		MaxSweepJobs:         opts.MaxSweepJobs,
		ForwardHeaderTimeout: opts.ResponseHeaderTimeout,
		TraceBufferSize:      opts.TraceBufferSize,
		SlowLogEnabled:       opts.SlowLogEnabled,
		SlowLogThreshold:     opts.SlowLogThreshold,
		SlowLogWriter:        opts.SlowLogWriter,
		DefaultSample:        opts.DefaultSample,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Coordinator{srv: srv, client: &http.Client{}, start: time.Now()}
	c.metrics = newClusterMetrics(c)
	for _, u := range urls {
		c.metrics.ensureBackend(u)
	}
	h := srv.Handler()
	counted := func(n *uint64) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			c.mu.Lock()
			*n++
			c.mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("POST /v1/run", counted(&c.runs))
	mux.Handle("POST /v1/sweep", counted(&c.sweeps))
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	c.handler = mux
	return c, nil
}

// backendURLs normalizes a configured pool, refusing an empty one, empty
// or schemeless URLs and duplicates.
func backendURLs(raw []string) ([]string, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	seen := make(map[string]bool, len(raw))
	urls := make([]string, 0, len(raw))
	for _, r := range raw {
		u := rendezvous.Normalize(r)
		if !strings.Contains(u, "://") || seen[u] {
			return nil, fmt.Errorf("cluster: invalid or duplicate backend URL %q", r)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	return urls, nil
}

// Handler returns the fabric's handler, suitable for http.Server: svwd's
// surface, with /v1/stats and /v1/healthz answered for the pool.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// SetDraining marks svwctl as draining: /v1/healthz flips to 503
// so load balancers stop routing to the process while in-flight requests
// finish (the same drain contract svwd has).
func (c *Coordinator) SetDraining(v bool) { c.draining.Store(v) }

// Close releases idle connections to the backends.
func (c *Coordinator) Close() error {
	c.client.CloseIdleConnections()
	return c.srv.Close()
}

// Backends returns the current member URLs.
func (c *Coordinator) Backends() []string {
	_, rows := c.srv.Routing()
	urls := make([]string, len(rows))
	for i, b := range rows {
		urls[i] = b.URL
	}
	return urls
}

// SetBackends reconciles the pool to exactly urls — the SIGHUP reload
// path: members not in urls drain out (walks already under way finish
// over the members they started with), missing ones are added and claim
// their rendezvous share of keys from the next request on. It reports
// what changed, sorted.
func (c *Coordinator) SetBackends(urls []string) (added, removed []string, err error) {
	want, err := backendURLs(dedupe(urls))
	if err != nil {
		return nil, nil, err
	}
	have := map[string]bool{}
	for _, u := range c.Backends() {
		have[u] = true
	}
	for _, u := range want {
		if !have[u] {
			added = append(added, u)
			c.metrics.ensureBackend(u)
		}
		delete(have, u)
	}
	for u := range have {
		removed = append(removed, u)
	}
	c.srv.SetPeers(want)
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed, nil
}

// dedupe drops blank entries and repeated spellings of one URL.
func dedupe(raw []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range raw {
		if u := rendezvous.Normalize(r); u != "" && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// clusterStats is the cluster section of /v1/stats.
func (c *Coordinator) clusterStats() api.ClusterStats {
	rs, rows := c.srv.Routing()
	c.mu.Lock()
	runs, sweeps := c.runs, c.sweeps
	c.mu.Unlock()
	st := api.ClusterStats{
		BackendsTotal: len(rows),
		Runs:          runs,
		Sweeps:        sweeps,
		Jobs:          rs.Answered,
		JobErrors:     rs.Failed,
		Retries:       rs.Moved,
		Backends:      rows,
	}
	for _, b := range rows {
		if b.Healthy {
			st.BackendsHealthy++
		}
	}
	return st
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := c.clusterStats()
	status, code := "ok", http.StatusOK
	switch {
	case c.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case st.BackendsHealthy == 0:
		status, code = "degraded", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, api.HealthResponse{
		Status:          status,
		UptimeS:         time.Since(c.start).Seconds(),
		BackendsHealthy: &st.BackendsHealthy,
		BackendsTotal:   &st.BackendsTotal,
	})
}

// handleStats aggregates the pool: each backend's /v1/stats is fetched
// concurrently and summed into the single-node shape (so svwload works
// unchanged against svwctl), plus the cluster section.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := api.StatsResponse{UptimeS: time.Since(c.start).Seconds()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, u := range c.Backends() {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			st, ok := c.fetchStats(r.Context(), u)
			if !ok {
				return // unreachable backends contribute nothing to the sums
			}
			// The section types aggregate themselves (internal/api's Add
			// methods), so a field added to the wire contract is summed
			// here by construction.
			mu.Lock()
			resp.Cache.Add(st.Cache)
			resp.Engine.Add(st.Engine)
			resp.Admission.Add(st.Admission)
			mu.Unlock()
		}(u)
	}
	wg.Wait()
	cs := c.clusterStats()
	resp.Cluster = &cs
	api.WriteJSON(w, http.StatusOK, resp)
}

// fetchStats reads one backend's /v1/stats.
func (c *Coordinator) fetchStats(ctx context.Context, u string) (api.StatsResponse, bool) {
	var st api.StatsResponse
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/stats", nil)
	if err != nil {
		return st, false
	}
	res, err := c.client.Do(req)
	if err != nil {
		return st, false
	}
	// Drain before Close: a decode stops at the JSON object and leaves the
	// trailing newline unread, and an undrained Close discards the
	// keep-alive connection, redialing each backend on every scrape.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(res.Body, 64<<10))
		res.Body.Close()
	}()
	return st, res.StatusCode == http.StatusOK && json.NewDecoder(res.Body).Decode(&st) == nil
}
