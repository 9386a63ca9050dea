package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
	"svwsim/internal/sim"
)

// A sweep reaches each backend as one cells-form /v1/sweep carrying the
// cells that backend owns. These tests pin the batching itself — one
// request per owner — and what happens when a batch fails or straggles.

// owners maps each (config, bench) cell to its rendezvous owner's index
// among the fabric's backends.
func owners(t *testing.T, f *fabric, configs, benches []string) []int {
	t.Helper()
	var urls []string
	for _, ts := range f.backends {
		urls = append(urls, ts.URL)
	}
	var out []int
	for _, c := range configs {
		for _, b := range benches {
			top := rendezvous.Rank(urls, jobKey(t, c, b))[0]
			for i, u := range urls {
				if u == top {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

// backendRequests sums the coordinator's per-backend request counters.
func backendRequests(st api.StatsResponse) uint64 {
	var n uint64
	for _, b := range st.Cluster.Backends {
		n += b.Requests
	}
	return n
}

// TestWarmSweepOneRequestPerOwner: a repeated sweep costs exactly one
// backend request per distinct owner of its cells, not one per cell.
func TestWarmSweepOneRequestPerOwner(t *testing.T) {
	f := newFabric(t, 3, server.Options{}, nil)
	body := sweepBody(membershipConfigs, equivalenceBenches)
	want := refSweepBody(t, membershipConfigs, equivalenceBenches)
	if w := f.do("POST", "/v1/sweep", body, nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("cold sweep: HTTP %d, match=%v", w.Code, bytes.Equal(w.Body.Bytes(), want))
	}
	before := f.stats(t)
	w := f.do("POST", "/v1/sweep", body, nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("warm sweep: HTTP %d, match=%v", w.Code, bytes.Equal(w.Body.Bytes(), want))
	}
	after := f.stats(t)

	distinct := map[int]bool{}
	for _, o := range owners(t, f, membershipConfigs, equivalenceBenches) {
		distinct[o] = true
	}
	if got := backendRequests(after) - backendRequests(before); got != uint64(len(distinct)) {
		t.Fatalf("warm sweep made %d backend requests, want %d (one per owner)", got, len(distinct))
	}
	njobs := uint64(len(membershipConfigs) * len(equivalenceBenches))
	if jobs := after.Cluster.Jobs - before.Cluster.Jobs; jobs != njobs {
		t.Fatalf("warm sweep counted %d jobs, want %d (one per cell)", jobs, njobs)
	}
	if hits := after.Cache.Hits - before.Cache.Hits; hits != njobs {
		t.Fatalf("warm sweep got %d backend cache hits, want %d", hits, njobs)
	}
	// Like svwd, the coordinator lists each cell's serving tier: a backend's answer.
	wantTiers := strings.TrimSuffix(strings.Repeat(api.CachePeer+",", int(njobs)), ",")
	if h := w.Header().Get(api.CacheHeader); h != wantTiers {
		t.Fatalf("%s = %q, want %q", api.CacheHeader, h, wantTiers)
	}
}

// configDigests reads svw_config_digests_total off a /metrics scrape.
func configDigests(t *testing.T, scrape string) uint64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, "svw_config_digests_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("svw_config_digests_total %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatalf("no svw_config_digests_total in the scrape")
	return 0
}

// digestCounts scrapes svw_config_digests_total from the coordinator and from each
// backend. (In this test the three share one process, and so one counter;
// each still serves it on its own /metrics, as separate processes do.)
func digestCounts(t *testing.T, f *fabric) []uint64 {
	t.Helper()
	counts := []uint64{configDigests(t, f.do("GET", "/metrics", "", nil).Body.String())}
	for _, ts := range f.backends {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, configDigests(t, string(body)))
	}
	return counts
}

// TestWarmSweepComputesNoDigests pins the keying work, not its time: a
// warm 60-cell sweep through the coordinator over two backends keys every cell at
// every hop — the coordinator to place it, the owner to probe its store — from the
// machines' interned digests, so no process hashes a configuration.
// (Hashing each cell's configuration at each hop, as keying did before the
// table, would add 60 at the coordinator and 30 at each owner.)
func TestWarmSweepComputesNoDigests(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
	benches := []string{"gcc", "twolf", "mcf", "vortex"}
	body := sweepBody(sim.ConfigNames(), benches)
	if w := f.do("POST", "/v1/sweep", body, nil); w.Code != http.StatusOK {
		t.Fatalf("warm-up sweep: HTTP %d: %s", w.Code, w.Body)
	}
	before := digestCounts(t, f)
	w := f.do("POST", "/v1/sweep", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("warm sweep: HTTP %d: %s", w.Code, w.Body)
	}
	if n := strings.Count(w.Header().Get(api.CacheHeader), api.CachePeer); n != 60 {
		t.Fatalf("warm sweep: %d of 60 cells answered by their owners", n)
	}
	after := digestCounts(t, f)
	for i := range after {
		if d := after[i] - before[i]; d != 0 {
			t.Errorf("process %d (0 = the coordinator) computed %d configuration digests for a warm sweep, want 0", i, d)
		}
	}
}

// cutBatches answers every /v1/sweep with the first half of the real
// reply and then drops the connection — an owner that dies mid-body.
func cutBatches(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
}

// TestSweepSurvivesBatchCutMidBody: an owner that cuts its batch reply off
// mid-body still yields a byte-identical sweep. Only that batch's cells
// move, regrouped by their next backend, and every cell is one job.
func TestSweepSurvivesBatchCutMidBody(t *testing.T) {
	f := newFabric(t, 3, server.Options{}, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return cutBatches(h)
		}
		return h
	})
	configs := sim.ConfigNames()
	urls := []string{f.backends[0].URL, f.backends[1].URL, f.backends[2].URL}
	cut, distinct, next := 0, map[int]bool{}, map[string]bool{}
	for _, c := range configs {
		for _, b := range faultBenches {
			o := owners(t, f, []string{c}, []string{b})[0]
			distinct[o] = true
			if o == 0 {
				cut++
				next[rendezvous.Rank(urls, jobKey(t, c, b))[1]] = true
			}
		}
	}
	if cut == 0 {
		t.Skip("no cell owned by the cutting backend")
	}

	w := f.do("POST", "/v1/sweep", sweepBody(configs, faultBenches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, faultBenches)) {
		t.Fatal("sweep body differs from reference after a batch was cut off")
	}
	st := f.stats(t)
	njobs := uint64(len(configs) * len(faultBenches))
	if st.Cluster.Jobs != njobs || st.Cluster.JobErrors != 0 {
		t.Fatalf("cluster jobs %d errors %d, want %d/0", st.Cluster.Jobs, st.Cluster.JobErrors, njobs)
	}
	if st.Cluster.Retries != uint64(cut) {
		t.Fatalf("retries %d, want %d: exactly the cut batch's cells, once each", st.Cluster.Retries, cut)
	}
	// One batch per owner, plus one per next backend of the cut cells.
	if got, want := backendRequests(st), uint64(len(distinct)+len(next)); got != want {
		t.Fatalf("%d backend requests, want %d", got, want)
	}
	for _, b := range st.Cluster.Backends {
		if b.URL == f.backends[0].URL && (b.JobsOK != 0 || b.Requests != 1) {
			t.Fatalf("cutting backend: %d jobs won over %d requests, want 0 over its 1 batch", b.JobsOK, b.Requests)
		}
	}
}
