package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"svwsim/internal/server"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// membershipConfigs is the matrix the membership suite sweeps: enough
// cells that a rendezvous re-rank over a changed pool moves some of them
// with near certainty, small enough for the race-enabled run.
var membershipConfigs = []string{"base-nlq", "nlq", "nlq+svw", "base-ssq", "ssq", "ssq+svw"}

func TestErrHTTPStatusText(t *testing.T) {
	if got := errHTTPStatus(http.StatusNotFound).Error(); got != "HTTP 404 Not Found" {
		t.Errorf("standard code: %q", got)
	}
	// The regression: http.StatusText(599) is "", which used to make the
	// whole error message blank in /v1/stats.
	if got := errHTTPStatus(599).Error(); got != "HTTP 599" {
		t.Errorf("non-standard code: %q", got)
	}
}

// TestProbeSurfacesNonStandardStatus drives the 599 path end to end: the
// probe marks the backend down and /v1/stats carries a non-empty
// last_error naming the code.
func TestProbeSurfacesNonStandardStatus(t *testing.T) {
	f := newFabric(t, 1, Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(599)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	if healthy := f.c.ProbeAll(context.Background()); healthy != 0 {
		t.Fatalf("ProbeAll = %d healthy, want 0", healthy)
	}
	st := f.stats(t)
	if len(st.Cluster.Backends) != 1 {
		t.Fatalf("want 1 backend in stats, got %d", len(st.Cluster.Backends))
	}
	if got := st.Cluster.Backends[0].LastError; got != "HTTP 599" {
		t.Errorf("last_error = %q, want %q", got, "HTTP 599")
	}
}

// TestProbesReuseConnections is the connection-churn regression: probes
// and proxied stats fetches must drain response bodies before closing, so
// sequential rounds ride one keep-alive connection instead of redialing
// every time. Dials are counted with the test server's ConnState hook.
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
	t.Cleanup(c.client.CloseIdleConnections)

	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if healthy := c.ProbeAll(ctx); healthy != 1 {
			t.Fatalf("probe round %d: %d healthy, want 1", i, healthy)
		}
	}
	// The aggregated stats fetch reads each backend's /v1/stats through
	// the same client; its body must be drained too.
	for i := 0; i < 4; i++ {
		r := httptest.NewRequest("GET", "/v1/stats", nil)
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("stats round %d: HTTP %d", i, w.Code)
		}
	}
	if n := atomic.LoadInt64(&dials); n != 1 {
		t.Errorf("%d dials for 12 sequential probe/stats rounds, want 1 (bodies not drained before close?)", n)
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
	f.c.ProbeAll(context.Background())

	jobs := len(membershipConfigs) * len(equivalenceBenches)
	body := sweepBody(membershipConfigs, equivalenceBenches)
	resp := make(chan *httptest.ResponseRecorder, 1)
	go func() { resp <- f.do("POST", "/v1/sweep", body, nil) }()

	recv(t, sawJob, "backend job") // at least one job is in flight on the 3-backend snapshot
	removed := f.backends[2].URL
	if err := f.c.RemoveBackend(removed); err != nil {
		t.Fatalf("RemoveBackend: %v", err)
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
	f.c.ProbeAll(context.Background())

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
	if err := f.c.AddBackend(ts.URL); err != nil {
		t.Fatalf("AddBackend: %v", err)
	}
	if healthy := f.c.ProbeAll(context.Background()); healthy != 3 {
		t.Fatalf("after add: %d healthy, want 3", healthy)
	}

	if w := f.do("POST", "/v1/sweep", body, nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("post-growth sweep: HTTP %d, match=%v", w.Code, bytes.Equal(w.Body.Bytes(), want))
	}

	// Expected remap: the cells whose rendezvous walk now tops out at the
	// new member. Everything else must have been a cache hit on its
	// original backend.
	pool := f.c.members.snapshot()
	moved := 0
	for _, cname := range membershipConfigs {
		cfg, ok := sim.ConfigByName(cname)
		if !ok {
			t.Fatalf("unknown config %q", cname)
		}
		for _, bench := range equivalenceBenches {
			key := engine.Fingerprint(cfg, bench, testInsts)
			if pool[rank(pool, key)[0]].url == ts.URL {
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
// through a store-backed coordinator compute the job once. The coordinator
// forwards every request — rendezvous routing sends them all to the key's
// one owner — and that backend's cell resolver coalesces them: one engine
// execution, the other N-1 joining its flight or hitting its store.
func TestClusterRunDogpile(t *testing.T) {
	f := newFabric(t, 1, Options{StoreDir: t.TempDir()}, nil)
	f.c.ProbeAll(context.Background())
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
