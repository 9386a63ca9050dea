package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/server"
)

// A coordinator started with a store dir writes computed results through
// to its own persistent tier and serves them back when the whole backend
// pool is gone: the fabric keeps answering everything it has ever
// computed, byte-identically, with zero live backends.
func TestCoordinatorStoreServesWhenPoolIsDown(t *testing.T) {
	dir := t.TempDir()
	configs := []string{"ssq", "ssq+svw"}
	benches := []string{"gcc", "twolf"}
	body := sweepBody(configs, benches)
	want := refSweepBody(t, configs, benches)

	f := newFabric(t, 2, Options{StoreDir: dir}, nil)
	w := f.do("POST", "/v1/sweep", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("warm sweep HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("warm sweep differs from reference")
	}

	// The fabric burns down: every backend gone, connections refused.
	for _, b := range f.backends {
		b.Close()
	}

	w2 := f.do("POST", "/v1/sweep", body, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("pool-down sweep HTTP %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w2.Body.Bytes(), want) {
		t.Fatal("pool-down sweep differs from reference")
	}
	st := f.stats(t)
	if st.Cluster.Store == nil {
		t.Fatal("cluster stats missing the coordinator store section")
	}
	njobs := uint64(len(configs) * len(benches))
	if served := st.Cluster.Store.Hits + st.Cluster.Store.DiskHits; served != njobs {
		t.Fatalf("coordinator store served %d jobs, want %d (stats %+v)", served, njobs, st.Cluster.Store)
	}
	if st.Cluster.Store.DiskEntries == 0 {
		t.Fatalf("write-through left no disk entries: %+v", st.Cluster.Store)
	}

	// /v1/run takes the same path and names the serving tier.
	runReq := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	w3 := f.do("POST", "/v1/run", runReq, nil)
	if w3.Code != http.StatusOK {
		t.Fatalf("pool-down run HTTP %d: %s", w3.Code, w3.Body)
	}
	if !bytes.Equal(w3.Body.Bytes(), refRunBody(t, "ssq", "gcc")) {
		t.Fatal("pool-down run differs from reference")
	}
	if h := w3.Header().Get(api.CacheHeader); h != api.CacheMemory && h != api.CacheDisk {
		t.Fatalf("pool-down run %s=%q, want a store tier", api.CacheHeader, h)
	}

	// A job the fabric never computed still fails cleanly: the store is a
	// cache, not an oracle.
	cold := fmt.Sprintf(`{"config":"nlq","bench":"vortex","insts":%d}`, testInsts)
	w4 := f.do("POST", "/v1/run", cold, nil)
	if w4.Code != http.StatusBadGateway {
		t.Fatalf("uncached pool-down run HTTP %d, want 502", w4.Code)
	}
}

// A second coordinator process over the same store dir — a restarted or
// replacement svwctl — inherits the persistent tier: fabric reshapes do
// not lose the result corpus.
func TestCoordinatorStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	runReq := fmt.Sprintf(`{"config":"ssq+svw","bench":"twolf","insts":%d}`, testInsts)

	f1 := newFabric(t, 1, Options{StoreDir: dir}, nil)
	w := f1.do("POST", "/v1/run", runReq, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("warm run HTTP %d: %s", w.Code, w.Body)
	}

	// New coordinator, same directory, dead pool (a URL nothing listens on).
	c2, err := New(Options{Backends: []string{"http://127.0.0.1:1"}, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/run", strings.NewReader(runReq))
	w2 := httptest.NewRecorder()
	c2.Handler().ServeHTTP(w2, r)
	if w2.Code != http.StatusOK {
		t.Fatalf("restarted coordinator run HTTP %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("restarted coordinator served different bytes")
	}
	if h := w2.Header().Get(api.CacheHeader); h != api.CacheDisk {
		t.Fatalf("restarted coordinator %s=%q, want disk", api.CacheHeader, h)
	}
}

// A backend started with its own sampling default resolves a cell the
// coordinator forwards exact as sampled. The coordinator keyed that cell
// exact, so it must not write the sampled bytes through under the exact
// key — once the backend is gone, the exact run has nothing to be served
// from. A coordinator whose default matches the backend's keys the cell
// sampled and writes it through as before.
func TestCoordinatorStoreKeepsSampledOutOfExactKeys(t *testing.T) {
	spec := pipeline.SampleSpec{Warmup: 1000, Detail: 1000, Period: 5000}
	runReq := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	for _, tc := range []struct {
		name      string
		ctlSample pipeline.SampleSpec
		wantDown  int
	}{
		{"exact coordinator", pipeline.SampleSpec{}, http.StatusBadGateway},
		{"sampled coordinator", spec, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := server.New(server.Options{Workers: 2, MaxConcurrentJobs: -1, DefaultSample: spec})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			c, err := New(Options{Backends: []string{ts.URL}, StoreDir: t.TempDir(), DefaultSample: tc.ctlSample})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.client.CloseIdleConnections)
			f := &fabric{c: c, backends: []*httptest.Server{ts}}

			w := f.do("POST", "/v1/run", runReq, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("live run HTTP %d: %s", w.Code, w.Body)
			}
			if bytes.Equal(w.Body.Bytes(), refRunBody(t, "ssq", "gcc")) {
				t.Fatal("the backend's sampling default did not apply; the case proves nothing")
			}
			ts.Close()
			w2 := f.do("POST", "/v1/run", runReq, nil)
			if w2.Code != tc.wantDown {
				t.Fatalf("pool-down run HTTP %d, want %d: %s", w2.Code, tc.wantDown, w2.Body)
			}
			if w2.Code == http.StatusOK && !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
				t.Fatal("pool-down run differs from the live one")
			}
		})
	}
}
