package cluster

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// membershipConfigs is the matrix the membership suite sweeps: enough
// cells that a rendezvous re-rank over a changed pool moves some of them
// with near certainty, small enough for the race-enabled run.
var membershipConfigs = []string{"base-nlq", "nlq", "nlq+svw", "base-ssq", "ssq", "ssq+svw"}

// statusFabric is a fabric whose backends answer every cell batch with
// the given statuses, one per backend.
func statusFabric(t *testing.T, codes ...int) *fabric {
	return newFabric(t, len(codes), Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jobCells(r) > 0 {
				w.WriteHeader(codes[i])
				return
			}
			h.ServeHTTP(w, r)
		})
	})
}

// TestErrHTTPStatusText: a backend's non-200 answer is named by its code
// in last_error, with the status text when the code has one.
func TestErrHTTPStatusText(t *testing.T) {
	f := statusFabric(t, http.StatusNotFound, 599)
	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := f.do("POST", "/v1/run", body, nil); w.Code != http.StatusBadGateway {
		t.Fatalf("run: HTTP %d, want 502", w.Code)
	}
	want := map[string]string{
		f.backends[0].URL: "HTTP 404 Not Found",
		// The regression: http.StatusText(599) is "", which used to make
		// the whole error message blank in /v1/stats.
		f.backends[1].URL: "HTTP 599",
	}
	for _, b := range f.stats(t).Cluster.Backends {
		if b.LastError != want[b.URL] {
			t.Errorf("%s: last_error = %q, want %q", b.URL, b.LastError, want[b.URL])
		}
	}
}

// TestProbeSurfacesNonStandardStatus drives the 599 path end to end: the
// failed forward — svwctl's only probe of a backend — marks it down,
// healthz turns degraded, and /v1/stats carries a last_error naming the
// code until the mark lapses.
func TestProbeSurfacesNonStandardStatus(t *testing.T) {
	f := statusFabric(t, 599)
	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := f.do("POST", "/v1/run", body, nil); w.Code != http.StatusBadGateway {
		t.Fatalf("run: HTTP %d, want 502", w.Code)
	}
	st := f.stats(t)
	if len(st.Cluster.Backends) != 1 {
		t.Fatalf("want 1 backend in stats, got %d", len(st.Cluster.Backends))
	}
	if b := st.Cluster.Backends[0]; b.Healthy || b.HealthFlaps != 1 || b.LastError != "HTTP 599" {
		t.Errorf("backend healthy=%v flaps=%d last_error=%q, want down, 1 flap, %q",
			b.Healthy, b.HealthFlaps, b.LastError, "HTTP 599")
	}
	if w := f.do("GET", "/v1/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz with the only backend down: HTTP %d, want 503", w.Code)
	}
}

// TestProbesReuseConnections is the connection-churn regression: forwards
// and stats fetches must read response bodies to EOF before closing, so
// sequential rounds ride one keep-alive connection per client instead of
// redialing every time. Dials are counted with the test server's
// ConnState hook.
func TestProbesReuseConnections(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 2, MaxConcurrentJobs: -1})
	if err != nil {
		t.Fatal(err)
	}
	var dials int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			atomic.AddInt64(&dials, 1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	c, err := New(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	for i := 0; i < 8; i++ {
		for _, req := range []*http.Request{
			httptest.NewRequest("POST", "/v1/run", strings.NewReader(body)),
			httptest.NewRequest("GET", "/v1/stats", nil),
		} {
			w := httptest.NewRecorder()
			c.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("round %d %s: HTTP %d", i, req.URL.Path, w.Code)
			}
		}
	}
	// One connection for the forwards, one for the stats fetches.
	if n := atomic.LoadInt64(&dials); n != 2 {
		t.Errorf("%d dials for 8 sequential forward/stats rounds, want 2 (bodies not drained before close?)", n)
	}
}

// TestMembershipRemoveMidSweep removes a backend while a sweep is in
// flight: the sweep must complete, byte-identical to `svwsim -json`, with
// every job counted exactly once; in-flight work drains against the
// snapshot it ranked under.
func TestMembershipRemoveMidSweep(t *testing.T) {
	sawJob := make(chan struct{})
	var once sync.Once
	f := newFabric(t, 3, Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jobCells(r) > 0 {
				once.Do(func() { close(sawJob) })
			}
			h.ServeHTTP(w, r)
		})
	})
	jobs := len(membershipConfigs) * len(equivalenceBenches)
	body := sweepBody(membershipConfigs, equivalenceBenches)
	resp := make(chan *httptest.ResponseRecorder, 1)
	go func() { resp <- f.do("POST", "/v1/sweep", body, nil) }()

	recv(t, sawJob, "backend job") // at least one job is in flight on the 3-backend snapshot
	removed := f.backends[2].URL
	if _, _, err := f.c.SetBackends([]string{f.backends[0].URL, f.backends[1].URL}); err != nil {
		t.Fatalf("SetBackends: %v", err)
	}

	w := recv(t, resp, "sweep response")
	if w.Code != http.StatusOK {
		t.Fatalf("sweep HTTP %d: %s", w.Code, w.Body)
	}
	if want := refSweepBody(t, membershipConfigs, equivalenceBenches); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("sweep across a membership change differs from the svwsim -json encoding")
	}
	st := f.stats(t)
	if st.Cluster.Jobs != uint64(jobs) {
		t.Errorf("jobs counted = %d, want %d (no double counting across the change)", st.Cluster.Jobs, jobs)
	}
	if st.Cluster.JobErrors != 0 {
		t.Errorf("job errors = %d, want 0", st.Cluster.JobErrors)
	}
	urls := f.c.Backends()
	if len(urls) != 2 {
		t.Fatalf("pool after removal = %v, want 2 members", urls)
	}
	for _, u := range urls {
		if u == removed {
			t.Fatalf("removed backend %s still in pool %v", removed, urls)
		}
	}
}

// TestMembershipAddRecoversAffinity grows the pool and re-sweeps: the
// result must stay byte-identical while only the cells whose rendezvous
// top choice is the new member move to it — everything else is answered
// from the original backends' caches (minimal remap).
func TestMembershipAddRecoversAffinity(t *testing.T) {
	f := newFabric(t, 2, Options{}, nil)

	body := sweepBody(membershipConfigs, equivalenceBenches)
	want := refSweepBody(t, membershipConfigs, equivalenceBenches)
	if w := f.do("POST", "/v1/sweep", body, nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("pre-growth sweep: HTTP %d, match=%v", w.Code, bytes.Equal(w.Body.Bytes(), want))
	}

	srv, err := server.New(server.Options{Workers: 2, MaxConcurrentJobs: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	added, _, err := f.c.SetBackends(append(f.c.Backends(), ts.URL))
	if err != nil || len(added) != 1 || added[0] != ts.URL {
		t.Fatalf("SetBackends added %v, %v; want [%s]", added, err, ts.URL)
	}

	if w := f.do("POST", "/v1/sweep", body, nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("post-growth sweep: HTTP %d, match=%v", w.Code, bytes.Equal(w.Body.Bytes(), want))
	}

	// Expected remap: the cells whose rendezvous walk now tops out at the
	// new member. Everything else must have been a cache hit on its
	// original backend.
	pool := f.c.Backends()
	moved := 0
	for _, cname := range membershipConfigs {
		cfg, ok := sim.ConfigByName(cname)
		if !ok {
			t.Fatalf("unknown config %q", cname)
		}
		for _, bench := range equivalenceBenches {
			key := engine.Fingerprint(cfg, bench, testInsts)
			if rendezvous.Rank(pool, key)[0] == ts.URL {
				moved++
			}
		}
	}
	st := f.stats(t)
	var newJobsOK, oldCacheHits uint64
	for _, b := range st.Cluster.Backends {
		if b.URL == ts.URL {
			newJobsOK = b.JobsOK
		} else {
			oldCacheHits += b.CacheHits
		}
	}
	jobs := len(membershipConfigs) * len(equivalenceBenches)
	if newJobsOK != uint64(moved) {
		t.Errorf("new backend served %d jobs, want exactly the %d remapped cells", newJobsOK, moved)
	}
	if oldCacheHits != uint64(jobs-moved) {
		t.Errorf("original backends served %d cache hits on the re-sweep, want %d (affinity for unmoved cells)",
			oldCacheHits, jobs-moved)
	}
	t.Logf("pool growth remapped %d/%d cells", moved, jobs)
}

// TestClusterRunDogpile: N identical concurrent cold /v1/run requests
// through svwctl compute the job once. svwctl forwards every request —
// rendezvous routing sends them all to the key's one owner — and that
// backend's cell resolver coalesces them: one engine execution, the other
// N-1 joining its flight or hitting its store.
func TestClusterRunDogpile(t *testing.T) {
	f := newFabric(t, 1, Options{}, nil)
	before := f.stats(t)

	const n = 6
	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	results := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.do("POST", "/v1/run", body, nil)
		}(i)
	}
	wg.Wait()

	want := refRunBody(t, "ssq", "gcc")
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("request %d: body differs from the svwsim -json encoding", i)
		}
	}
	after := f.stats(t)
	if got := after.Engine.MemoMisses - before.Engine.MemoMisses; got != 1 {
		t.Errorf("backend engine executed %d times for %d identical requests, want 1", got, n)
	}
	coalesced := after.Cache.Coalesced - before.Cache.Coalesced
	hits := after.Cache.Hits - before.Cache.Hits
	if coalesced+hits != n-1 {
		t.Errorf("backend store coalesced=%d hits=%d, want their sum = %d", coalesced, hits, n-1)
	}
}
