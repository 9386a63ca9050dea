package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/server"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

const testInsts = 5_000

// equivalenceBenches is the bench slice the multi-node suite sweeps with
// the full config registry: every machine in the paper's ladders over a
// representative bench subset, kept small enough for the race-enabled run.
var equivalenceBenches = []string{"gcc", "twolf"}

// fabric is a coordinator — an svwd with members and no self among them
// — over n real in-process svwd backends, each an httptest server
// speaking actual HTTP (so transport-level faults — connection kills, 503
// wrappers — behave like production).
type fabric struct {
	c        *server.Server
	backends []*httptest.Server
}

// newFabric builds n svwd backends and a coordinator over them, configured
// by opts with the backends as its Peers. wrap, if non-nil, can interpose
// a fault-injecting handler per backend.
func newFabric(t testing.TB, n int, opts server.Options, wrap func(i int, h http.Handler) http.Handler) *fabric {
	t.Helper()
	f := &fabric{}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Options{Workers: 2, MaxConcurrentJobs: -1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		f.backends = append(f.backends, ts)
		opts.Peers = append(opts.Peers, ts.URL)
	}
	f.c = newCoordinator(t, opts)
	return f
}

// newCoordinator builds the coordinator opts describe.
func newCoordinator(t testing.TB, opts server.Options) *server.Server {
	t.Helper()
	c, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Runs after the backends close (LIFO): drop pooled keep-alive
	// connections so server teardown never waits on them.
	t.Cleanup(func() { c.Close() })
	return c
}

// members is the coordinator's membership, in order.
func members(c *server.Server) []string {
	_, rows := c.Routing()
	urls := make([]string, len(rows))
	for i, b := range rows {
		urls[i] = b.URL
	}
	return urls
}

// do runs one request through the coordinator's handler.
func (f *fabric) do(method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	f.c.Handler().ServeHTTP(w, r)
	return w
}

// stats fetches the coordinator's aggregated /v1/stats.
func (f *fabric) stats(t *testing.T) api.StatsResponse {
	t.Helper()
	w := f.do("GET", "/v1/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats HTTP %d: %s", w.Code, w.Body)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("coordinator stats without cluster section")
	}
	return st
}

// refRunBody is the reference encoding — what `svwsim -json` prints for
// one (config, bench, testInsts) job — memoized across the whole test
// package so each job's reference simulation runs once.
var (
	refMu    sync.Mutex
	refCache = map[string][]byte{}
)

func refRunBody(t *testing.T, config, bench string) []byte {
	t.Helper()
	k := config + "|" + bench
	refMu.Lock()
	body, ok := refCache[k]
	refMu.Unlock()
	if ok {
		return body
	}
	cfg, ok := sim.ConfigByName(config)
	if !ok {
		t.Fatalf("unknown config %q", config)
	}
	res, err := engine.Run(cfg, bench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	body, err = api.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	refMu.Lock()
	refCache[k] = body
	refMu.Unlock()
	return body
}

// refSweepBody concatenates the reference bodies config-major — the exact
// bytes `svwsim -json -config c1,c2 -bench b1,b2` prints.
func refSweepBody(t *testing.T, configs, benches []string) []byte {
	t.Helper()
	var body []byte
	for _, c := range configs {
		for _, b := range benches {
			body = append(body, refRunBody(t, c, b)...)
		}
	}
	return body
}

// waitTimeout bounds every channel wait in this package's tests, so a
// routing change that never delivers fails in seconds, not at go test's
// timeout.
const waitTimeout = 10 * time.Second

// recv receives from ch, failing the test after waitTimeout.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	timer := time.NewTimer(waitTimeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		return v
	case <-timer.C:
		t.Fatalf("no %s within %v", what, waitTimeout)
		panic("unreachable")
	}
}

// jobCells is how many cells a backend request carries: the cell count
// of a /v1/sweep — the coordinator's only job route, a per-owner batch or
// a one-cell walk — and 0 for anything else. Fault injectors use it to
// match job traffic; it reads r's body and restores it for the wrapped
// handler.
func jobCells(r *http.Request) int {
	if r.URL.Path != "/v1/sweep" {
		return 0
	}
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req api.SweepRequest
	if json.Unmarshal(body, &req) != nil {
		return 0
	}
	return req.NumCells()
}

func sweepBody(configs, benches []string) string {
	b, _ := json.Marshal(api.SweepRequest{Configs: configs, Benches: benches, Insts: testInsts})
	return string(b)
}

// TestClusterSweepEquivalence is the multi-node headline: the full
// config-registry sweep through a 3-backend fabric is byte-identical to
// the `svwsim -json` encoding AND to the same sweep through a 1-backend
// fabric — the cluster-level analog of the engine's j1==j4 determinism.
func TestClusterSweepEquivalence(t *testing.T) {
	configs := sim.ConfigNames()
	want := refSweepBody(t, configs, equivalenceBenches)
	body := sweepBody(configs, equivalenceBenches)

	multi := newFabric(t, 3, server.Options{}, nil)
	w := multi.do("POST", "/v1/sweep", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("3-backend sweep HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("3-backend sweep differs from the svwsim -json reference")
	}

	single := newFabric(t, 1, server.Options{}, nil)
	w1 := single.do("POST", "/v1/sweep", body, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("1-backend sweep HTTP %d: %s", w1.Code, w1.Body)
	}
	if !bytes.Equal(w1.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("1-backend and 3-backend sweeps differ: merge order is not deterministic")
	}

	// The equivalence must come from a genuine fan-out: every backend in
	// the pool served a share of the jobs (routing is balanced enough over
	// 45 keys that an unused backend means routing or failover is broken).
	st := multi.stats(t)
	njobs := uint64(len(configs) * len(equivalenceBenches))
	if st.Cluster.Jobs != njobs || st.Cluster.JobErrors != 0 {
		t.Fatalf("cluster jobs %d errors %d, want %d/0", st.Cluster.Jobs, st.Cluster.JobErrors, njobs)
	}
	var sumOK uint64
	for _, b := range st.Cluster.Backends {
		if b.JobsOK == 0 {
			t.Errorf("backend %s served no jobs; fan-out did not spread", b.URL)
		}
		sumOK += b.JobsOK
	}
	if sumOK != njobs {
		t.Fatalf("backends won %d jobs in total, want exactly %d (no double counting)", sumOK, njobs)
	}
	// Backend-side accounting agrees: each job was computed (or served
	// from an LRU) exactly once across the pool.
	if served := st.Cache.Hits + st.Cache.Misses; served != njobs {
		t.Fatalf("pool cache served %d jobs, want %d", served, njobs)
	}

	// Repeat the sweep: routing affinity must turn it into pure backend
	// LRU hits, still byte-identical.
	w2 := multi.do("POST", "/v1/sweep", body, nil)
	if !bytes.Equal(w2.Body.Bytes(), want) {
		t.Fatal("repeated sweep differs")
	}
	st2 := multi.stats(t)
	if hits := st2.Cache.Hits - st.Cache.Hits; hits != njobs {
		t.Fatalf("repeat sweep got %d pool cache hits, want %d (affinity broken)", hits, njobs)
	}
}

// TestClusterSSEOrderingAndPayloads: the streamed sweep arrives in
// job-index order with each payload byte-identical to the reference and
// attributed to the backend that answered it (tier peer: a backend's
// answer), and the repeat pass is served from the backends' stores.
func TestClusterSSEOrderingAndPayloads(t *testing.T) {
	f := newFabric(t, 3, server.Options{}, nil)
	configs := []string{"ssq", "ssq+svw", "nlq", "rle"}
	benches := []string{"gcc", "twolf"}
	body := sweepBody(configs, benches)
	hdr := map[string]string{"Accept": "text/event-stream"}
	n := len(configs) * len(benches)

	check := func() {
		t.Helper()
		w := f.do("POST", "/v1/sweep", body, hdr)
		if w.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
		events, err := api.ParseEvents(w.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != n+1 {
			t.Fatalf("got %d events, want %d results + done", len(events), n)
		}
		for i := 0; i < n; i++ {
			ev := events[i]
			if ev.Name != "result" || ev.ID != i {
				t.Fatalf("event %d: name %q id %d (SSE must arrive in job-index order)", i, ev.Name, ev.ID)
			}
			var data api.SweepEvent
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatal(err)
			}
			cfg, bench := configs[i/len(benches)], benches[i%len(benches)]
			built, _ := sim.ConfigByName(cfg)
			if data.Index != i || data.Config != built.Name || data.Bench != bench {
				t.Fatalf("event %d: %+v, want %s on %s", i, data, built.Name, bench)
			}
			if data.Backend == "" {
				t.Fatalf("event %d: no backend attribution", i)
			}
			if !data.Cached || data.Origin != api.CachePeer {
				t.Fatalf("event %d: cached=%v origin=%q, want a backend's answer (peer)", i, data.Cached, data.Origin)
			}
			// Event payloads ride inside a JSON envelope, which compacts
			// the embedded RawMessage; compare against the compacted
			// reference bytes.
			var ref bytes.Buffer
			if err := json.Compact(&ref, refRunBody(t, cfg, bench)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data.Result, ref.Bytes()) {
				t.Fatalf("event %d: result payload differs from reference", i)
			}
		}
		last := events[n]
		if last.Name != "done" {
			t.Fatalf("final event %q, want done", last.Name)
		}
		var done api.SweepDone
		if err := json.Unmarshal(last.Data, &done); err != nil {
			t.Fatal(err)
		}
		if want := (api.SweepDone{Jobs: n, CacheHits: n, PeerHits: n}); done != want {
			t.Fatalf("done %+v, want %+v", done, want)
		}
	}
	// First pass: computed across the pool; second: served by the
	// backends' memory tiers via affinity.
	for pass, tier := range []func(api.CacheStats) uint64{
		func(c api.CacheStats) uint64 { return c.Misses },
		func(c api.CacheStats) uint64 { return c.Hits },
	} {
		before := f.stats(t)
		check()
		if got := tier(f.stats(t).Cache) - tier(before.Cache); got != uint64(n) {
			t.Fatalf("pass %d: backends served %d cells from the expected tier, want %d", pass, got, n)
		}
	}
}

// TestClusterRunAndRegistryEndpoints: /v1/run through the fabric matches
// the reference encoding and the CLI-facing registry endpoints are
// byte-identical to a backend's.
func TestClusterRunAndRegistryEndpoints(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
	runReq := fmt.Sprintf(`{"config":"ssq+svw","bench":"gcc","insts":%d}`, testInsts)

	w := f.do("POST", "/v1/run", runReq, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("run HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refRunBody(t, "ssq+svw", "gcc")) {
		t.Fatal("run body differs from svwsim -json reference")
	}
	if h := w.Header().Get(api.CacheHeader); h != api.CachePeer {
		t.Fatalf("run %s=%q, want peer (a backend's answer)", api.CacheHeader, h)
	}
	// memoryHits sums the cells backends answered from their memory tier.
	memoryHits := func() (n uint64) {
		for _, b := range f.stats(t).Cluster.Backends {
			n += b.CacheHits
		}
		return n
	}
	if n := memoryHits(); n != 0 {
		t.Fatalf("first run answered from a backend's memory tier %d times, want computed", n)
	}
	// Repeat: same backend via affinity, served by its LRU.
	w2 := f.do("POST", "/v1/run", runReq, nil)
	if !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("repeated run differs")
	}
	if n := memoryHits(); n != 1 {
		t.Fatalf("repeat run: %d backend memory hits, want 1 (affinity broken)", n)
	}
	// A case-insensitive alias routes and encodes identically.
	alias := fmt.Sprintf(`{"config":"SSQ+SVW","bench":"gcc","insts":%d}`, testInsts)
	w3 := f.do("POST", "/v1/run", alias, nil)
	if !bytes.Equal(w3.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("aliased config run differs")
	}
	if n := memoryHits(); n != 2 {
		t.Fatalf("aliased run: %d backend memory hits, want 2 (canonicalization broke affinity)", n)
	}

	for _, path := range []string{"/v1/configs", "/v1/benches"} {
		got := f.do("GET", path, "", nil)
		r, err := http.Get(f.backends[0].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := want.ReadFrom(r.Body); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if !bytes.Equal(got.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s differs between coordinator and backend", path)
		}
	}
}

// TestClusterStudyProxy: a study through the fabric resolves its cells at
// their owners — the §3.6 rungs travel by name — and repeats are served
// cell by cell from the backends' stores.
func TestClusterStudyProxy(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
	path := fmt.Sprintf("/v1/studies/ssn?benches=gcc&bits=8,0&insts=%d", testInsts)
	w := f.do("GET", path, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("ssn HTTP %d: %s", w.Code, w.Body)
	}
	var ssn sim.SSNWidthJSON
	if err := json.Unmarshal(w.Body.Bytes(), &ssn); err != nil {
		t.Fatal(err)
	}
	if len(ssn.Bits) != 2 {
		t.Fatalf("ssn %+v", ssn)
	}
	before := f.stats(t)
	w2 := f.do("GET", path, "", nil)
	if !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("repeated study differs")
	}
	// Studies resolve per cell (1 bench x 2 widths): the repeat is one
	// backend store hit per cell, from any tier, and no new misses.
	after := f.stats(t)
	hits := after.Cache.Hits + after.Cache.DiskHits + after.Cache.PeerHits -
		before.Cache.Hits - before.Cache.DiskHits - before.Cache.PeerHits
	if hits != 2 || after.Cache.Misses != before.Cache.Misses {
		t.Fatalf("study repeat got %d backend cell hits and %d new misses, want 2 and 0",
			hits, after.Cache.Misses-before.Cache.Misses)
	}
	// Validation errors are the coordinator's own, as svwd's.
	if w := f.do("GET", "/v1/studies/ladder?benches=gcc", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("ladder without fig: HTTP %d, want 400", w.Code)
	}
	if w := f.do("GET", "/v1/studies/nope", "", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown study: HTTP %d, want 404", w.Code)
	}
}

// TestClusterValidation: the coordinator enforces the same request
// contract as a single backend, before any fan-out.
func TestClusterValidation(t *testing.T) {
	f := newFabric(t, 2, server.Options{MaxSweepJobs: 4, MaxBodyBytes: 512}, nil)
	cases := []struct {
		method, path, body string
		code               int
	}{
		{"POST", "/v1/run", `{"config":"no-such","bench":"gcc"}`, http.StatusBadRequest},
		{"POST", "/v1/run", `{"config":"ssq","bench":"no-such"}`, http.StatusBadRequest},
		{"POST", "/v1/run", `{"config":`, http.StatusBadRequest},
		{"POST", "/v1/run", `{"config":"ssq","bench":"gcc","bogus":1}`, http.StatusBadRequest},
		{"POST", "/v1/sweep", `{"configs":[],"benches":["gcc"]}`, http.StatusBadRequest},
		{"POST", "/v1/sweep", `{"configs":["no-such"],"benches":["gcc"]}`, http.StatusBadRequest},
		{"POST", "/v1/sweep", `{"configs":["ssq","nlq","rle"],"benches":["gcc","twolf"]}`, http.StatusBadRequest},
		{"POST", "/v1/run", `{"config":"ssq","bench":"gcc","pad":"` + strings.Repeat("x", 600) + `"}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if w := f.do(c.method, c.path, c.body, nil); w.Code != c.code {
			t.Errorf("%s %s %q: HTTP %d, want %d", c.method, c.path, c.body, w.Code, c.code)
		}
	}
	if w := f.do("GET", "/v1/run", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: HTTP %d, want 405", w.Code)
	}
	// No backend was consulted for any of these.
	st := f.stats(t)
	for _, b := range st.Cluster.Backends {
		if b.Requests != 0 {
			t.Errorf("backend %s saw %d requests from invalid client input", b.URL, b.Requests)
		}
	}
}

// TestNewRejectsBadPools: a coordinator without a valid pool is a
// configuration error, not a latent outage.
func TestNewRejectsBadPools(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New with no backends succeeded")
	}
	if _, err := New(Options{Backends: []string{"http://a", "http://a"}}); err == nil {
		t.Error("New with duplicate backends succeeded")
	}
	if _, err := New(Options{Backends: []string{""}}); err == nil {
		t.Error("New with empty backend URL succeeded")
	}
}

// TestHealthzStates: ok with a healthy pool, degraded (503) once failed
// forwards have marked every backend down, draining (503) once shutdown
// begins.
func TestHealthzStates(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
	w := f.do("GET", "/v1/healthz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz HTTP %d", w.Code)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.BackendsHealthy == nil || *h.BackendsHealthy != 2 || *h.BackendsTotal != 2 {
		t.Fatalf("healthz %+v", h)
	}

	for _, ts := range f.backends {
		ts.Close()
	}
	run := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := f.do("POST", "/v1/run", run, nil); w.Code != http.StatusBadGateway {
		t.Fatalf("run over closed backends: HTTP %d, want 502", w.Code)
	}
	if w := f.do("GET", "/v1/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-down healthz HTTP %d, want 503", w.Code)
	}

	f.c.SetDraining(true)
	w = f.do("GET", "/v1/healthz", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining healthz HTTP %d status %q", w.Code, h.Status)
	}
}

// TestStatsKeepMemberOrder: the coordinator's cluster rows come in
// membership order — the order it was configured with — on every fetch,
// so a client can diff Backends[i] between two fetches (perfbench does).
func TestStatsKeepMemberOrder(t *testing.T) {
	f := newFabric(t, 3, server.Options{}, nil)
	var want []string
	for _, ts := range f.backends {
		want = append(want, ts.URL)
	}
	order := func(st api.StatsResponse) []string {
		var urls []string
		for _, b := range st.Cluster.Backends {
			urls = append(urls, b.URL)
		}
		return urls
	}
	before := f.stats(t)
	if w := f.do("POST", "/v1/sweep", sweepBody(membershipConfigs, equivalenceBenches), nil); w.Code != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", w.Code, w.Body)
	}
	after := f.stats(t)
	var forwards uint64
	for i, st := range []api.StatsResponse{before, after, f.stats(t)} {
		if got := order(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("fetch %d: members %q, want %q", i, got, want)
		}
	}
	for i := range want {
		forwards += after.Cluster.Backends[i].Requests - before.Cluster.Backends[i].Requests
	}
	if forwards == 0 || forwards > uint64(len(want)) {
		t.Errorf("%d forwards for one sweep over %d members, want 1..%d", forwards, len(want), len(want))
	}
}

// TestForwardedBatchCarriesTheSpec: the coordinator resolves each cell's sampling
// spec — its own default for a request without one — and the batch it
// forwards carries that spec, so a backend never applies a default of its
// own to it: the backend's store files the result under the key the coordinator
// planned. An exact coordinator in front of a sampling backend gets exact
// results; a sampling coordinator gets the same bytes the backend answers
// directly.
func TestForwardedBatchCarriesTheSpec(t *testing.T) {
	spec := pipeline.SampleSpec{Warmup: 1000, Detail: 1000, Period: 5000}
	runReq := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	srv, err := server.New(server.Options{Workers: 2, MaxConcurrentJobs: -1, DefaultSample: spec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	direct, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runReq))
	if err != nil {
		t.Fatal(err)
	}
	sampled, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	if direct.StatusCode != http.StatusOK || bytes.Equal(sampled, refRunBody(t, "ssq", "gcc")) {
		t.Fatalf("direct run HTTP %d: the backend's sampling default did not apply; the case proves nothing", direct.StatusCode)
	}
	for _, tc := range []struct {
		name string
		ctl  pipeline.SampleSpec
		want []byte
	}{
		{"exact coordinator", pipeline.SampleSpec{}, refRunBody(t, "ssq", "gcc")},
		{"sampling coordinator", spec, sampled},
	} {
		c := newCoordinator(t, server.Options{Peers: []string{ts.URL}, DefaultSample: tc.ctl})
		f := &fabric{c: c, backends: []*httptest.Server{ts}}
		if w := f.do("POST", "/v1/run", runReq, nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), tc.want) {
			t.Errorf("%s: HTTP %d, body matches want: %v", tc.name, w.Code, bytes.Equal(w.Body.Bytes(), tc.want))
		}
	}
}
