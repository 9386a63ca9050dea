package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
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

// backendRequests sums svwctl's per-backend request counters.
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
	f := newFabric(t, 3, Options{}, nil)
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
	// Like svwd, svwctl lists each cell's serving tier: a backend's answer.
	wantTiers := strings.TrimSuffix(strings.Repeat(api.CachePeer+",", int(njobs)), ",")
	if h := w.Header().Get(api.CacheHeader); h != wantTiers {
		t.Fatalf("%s = %q, want %q", api.CacheHeader, h, wantTiers)
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
	f := newFabric(t, 3, Options{}, func(i int, h http.Handler) http.Handler {
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
