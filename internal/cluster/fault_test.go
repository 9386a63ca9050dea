package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/server"
	"svwsim/internal/sim"
)

// Fault injection: the fabric's equivalence claim is only believable if
// it holds while backends are failing underneath it. These tests break
// one backend mid-sweep — politely (503s) and rudely (killed listener) —
// and require the output to stay complete, job-index ordered and
// byte-identical to the reference, with every job accounted exactly once.

// faultBenches keeps the fault sweeps heavy enough that a backend dies
// mid-flight with work outstanding, light enough for -race CI.
var faultBenches = []string{"gcc", "twolf"}

// failAfterN passes cell batches through to the real svwd handler until
// they have carried n cells, then answers every later one with 503 — a
// backend that falls over mid-sweep but keeps its socket open.
func failAfterN(n int64, h http.Handler) http.Handler {
	var served int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cells := jobCells(r); cells > 0 && atomic.AddInt64(&served, int64(cells)) > n {
			api.WriteError(w, http.StatusServiceUnavailable, "injected fault: backend down")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestSweepSurvives503MidSweep: one of three backends starts 503ing after
// its first few jobs. The sweep must still complete byte-identical to the
// reference, every job moved onto a survivor, and the stats must count
// each job exactly once — on the coordinator AND summed across the
// backends' own caches (the no-double-count contract).
func TestSweepSurvives503MidSweep(t *testing.T) {
	const passThrough = 3
	f := newFabric(t, 3, server.Options{}, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return failAfterN(passThrough, h)
		}
		return h
	})
	configs := sim.ConfigNames()
	njobs := uint64(len(configs) * len(faultBenches))

	w := f.do("POST", "/v1/sweep", sweepBody(configs, faultBenches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep over failing backend: HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, faultBenches)) {
		t.Fatal("sweep body differs from reference after mid-sweep 503s")
	}

	st := f.stats(t)
	if st.Cluster.Jobs != njobs || st.Cluster.JobErrors != 0 {
		t.Fatalf("cluster jobs %d errors %d, want %d/0 — every job exactly once",
			st.Cluster.Jobs, st.Cluster.JobErrors, njobs)
	}
	if st.Cluster.Retries == 0 {
		t.Fatal("no retries recorded; the injected fault had no teeth")
	}
	var sumOK uint64
	for _, b := range st.Cluster.Backends {
		sumOK += b.JobsOK
		if b.URL == f.backends[0].URL {
			if b.JobsOK > passThrough {
				t.Errorf("failed backend won %d jobs, can have served at most %d", b.JobsOK, passThrough)
			}
			// The health mark itself is not asserted: with concurrent
			// in-flight requests a late 200 can legitimately land after
			// the last 503, leaving either mark. The routing consequences
			// (JobsOK bound, retries, exact accounting) are what matter.
			if b.Errors == 0 {
				t.Error("failed backend shows no errors")
			}
		}
	}
	if sumOK != njobs {
		t.Fatalf("backends won %d jobs in total, want exactly %d (double- or under-counted)", sumOK, njobs)
	}
	// The decisive double-count check: each job touched exactly one
	// backend cache (hit or miss) — failed attempts never reached a cache,
	// retried jobs were served exactly once elsewhere.
	if served := st.Cache.Hits + st.Cache.Misses; served != njobs {
		t.Fatalf("backend caches served %d jobs, want exactly %d", served, njobs)
	}
}

// killingFabric is a 3-backend fabric whose first backend is torn down
// once its batches have carried killAfter cells: open connections die
// with rude RSTs, later dials are refused.
func killingFabric(t *testing.T, killAfter int64) *fabric {
	var (
		kill       sync.Once
		killTarget atomic.Pointer[httptest.Server]
	)
	f := newFabric(t, 3, server.Options{}, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		var served int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if cells := jobCells(r); cells > 0 && atomic.AddInt64(&served, int64(cells)) > killAfter {
				// Close blocks until handlers return, so run it from the
				// side.
				kill.Do(func() {
					ts := killTarget.Load()
					go func() {
						ts.CloseClientConnections()
						ts.Close()
					}()
				})
				// Answer 503 in case the teardown loses the race with this
				// response; either way the cells must walk on.
				api.WriteError(w, http.StatusServiceUnavailable, "backend killed")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	killTarget.Store(f.backends[0])
	return f
}

// TestSweepSurvivesBackendKill: a backend's listener is torn down
// mid-sweep under a buffered sweep. The body must still be byte-identical
// to the reference, every job counted once.
func TestSweepSurvivesBackendKill(t *testing.T) {
	f := killingFabric(t, 2)
	configs := sim.ConfigNames()
	w := f.do("POST", "/v1/sweep", sweepBody(configs, faultBenches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, faultBenches)) {
		t.Fatal("sweep body differs from reference after a backend kill")
	}
	st := f.stats(t)
	n := uint64(len(configs) * len(faultBenches))
	if st.Cluster.Retries == 0 || st.Cluster.Jobs != n || st.Cluster.JobErrors != 0 {
		t.Fatalf("retries %d, jobs %d, errors %d; want > 0, %d, 0", st.Cluster.Retries, st.Cluster.Jobs, st.Cluster.JobErrors, n)
	}
}

// TestSweepSSESurvivesBackendKill: a backend's listener is torn down
// after a handful of jobs, mid-sweep, with the client streaming. Events
// must still arrive complete, in job-index order, error-free and with
// payloads matching the reference.
func TestSweepSSESurvivesBackendKill(t *testing.T) {
	f := killingFabric(t, 2)

	configs := sim.ConfigNames()
	w := f.do("POST", "/v1/sweep", sweepBody(configs, faultBenches),
		map[string]string{"Accept": "text/event-stream"})
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	events, err := api.ParseEvents(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	n := len(configs) * len(faultBenches)
	if len(events) != n+1 {
		t.Fatalf("got %d events, want %d results + done", len(events), n)
	}
	for i := 0; i < n; i++ {
		ev := events[i]
		if ev.Name != "result" || ev.ID != i {
			t.Fatalf("event %d: name %q id %d — order must survive the kill", i, ev.Name, ev.ID)
		}
		var data api.SweepEvent
		if err := json.Unmarshal(ev.Data, &data); err != nil {
			t.Fatal(err)
		}
		if data.Error != "" {
			t.Fatalf("event %d: error %q leaked to the client despite retries", i, data.Error)
		}
		cfg, bench := configs[i/len(faultBenches)], faultBenches[i%len(faultBenches)]
		var ref bytes.Buffer
		if err := json.Compact(&ref, refRunBody(t, cfg, bench)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data.Result, ref.Bytes()) {
			t.Fatalf("event %d: payload differs from reference after backend kill", i)
		}
	}
	var done api.SweepDone
	if err := json.Unmarshal(events[n].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Jobs != n || done.Errors != 0 {
		t.Fatalf("done %+v, want %d jobs, 0 errors", done, n)
	}
	st := f.stats(t)
	if st.Cluster.Retries == 0 {
		t.Fatal("no retries recorded; the kill had no teeth")
	}
	if st.Cluster.Jobs != uint64(n) || st.Cluster.JobErrors != 0 {
		t.Fatalf("cluster jobs %d errors %d, want %d/0", st.Cluster.Jobs, st.Cluster.JobErrors, n)
	}
}

// TestRunFailsOverFromDeadBackend: individual /v1/run requests whose home
// backend is dead from the start are served by the survivor, byte-
// identically, and the dead backend wins nothing.
func TestRunFailsOverFromDeadBackend(t *testing.T) {
	dead := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			api.WriteError(w, http.StatusServiceUnavailable, "injected fault: dead backend")
		})
	}
	f := newFabric(t, 2, server.Options{}, dead)

	for _, cname := range sim.ConfigNames() {
		body, _ := json.Marshal(api.RunRequest{Config: cname, Bench: "gcc", Insts: testInsts})
		w := f.do("POST", "/v1/run", string(body), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("run %s: HTTP %d: %s", cname, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), refRunBody(t, cname, "gcc")) {
			t.Fatalf("run %s differs from reference", cname)
		}
	}
	st := f.stats(t)
	if st.Cluster.Retries == 0 {
		t.Fatal("no retries: every key homed on the survivor, the failover path was never exercised")
	}
	for _, b := range st.Cluster.Backends {
		if b.URL == f.backends[0].URL && b.JobsOK != 0 {
			t.Fatalf("dead backend won %d jobs", b.JobsOK)
		}
	}
}

// TestSweepSaturatedPoolReturns429: when every backend refuses with 429,
// the sweep answers 429 + Retry-After exactly like a single saturated svwd
// — not a 500. The fabric must be indistinguishable from one daemon even
// in its failure statuses. The sweep's cells share one owner, so they go
// out as one batch; once it is refused they walk on together to the next
// backend, which refuses them too.
func TestSweepSaturatedPoolReturns429(t *testing.T) {
	var refusedBatches, refusedCells atomic.Int64
	saturated := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := jobCells(r)
			if n == 0 {
				h.ServeHTTP(w, r)
				return
			}
			refusedBatches.Add(1)
			refusedCells.Add(int64(n))
			w.Header().Set("Retry-After", "1")
			api.WriteError(w, http.StatusTooManyRequests, "admission gate saturated")
		})
	}
	f := newFabric(t, 2, server.Options{}, saturated)
	var cells []api.SweepCell
	for _, c := range sim.ConfigNames() {
		if len(cells) < 2 && owners(t, f, []string{c}, []string{"gcc"})[0] == 0 {
			cells = append(cells, api.SweepCell{Config: c, Bench: "gcc"})
		}
	}
	if len(cells) < 2 {
		t.Fatal("fewer than two configs own gcc on backend 0")
	}
	body, _ := json.Marshal(api.SweepRequest{Cells: cells, Insts: testInsts})
	w := f.do("POST", "/v1/sweep", string(body), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("sweep over saturated pool: HTTP %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The batch's walk spans the pool: both backends, once each.
	if got, want := refusedCells.Load(), int64(2*len(cells)); refusedBatches.Load() != 2 || got != want {
		t.Errorf("refused %d batches carrying %d cells, want 2 carrying %d: "+
			"the batch did not walk the pool together", refusedBatches.Load(), got, want)
	}
	// Saturation is not sickness: neither backend is marked down.
	if st := f.stats(t); st.Cluster.BackendsHealthy != 2 {
		t.Errorf("%d backends healthy after 429s, want 2", st.Cluster.BackendsHealthy)
	}
}

// TestAllBackendsDown: with the whole pool dead the coordinator reports a clean
// 502 per request and a degraded healthz — it does not hang or panic.
func TestAllBackendsDown(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
	for _, ts := range f.backends {
		ts.Close()
	}
	body, _ := json.Marshal(api.RunRequest{Config: "ssq", Bench: "gcc", Insts: testInsts})
	w := f.do("POST", "/v1/run", string(body), nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("run over dead pool: HTTP %d, want 502", w.Code)
	}
	if st := f.stats(t); st.Cluster.BackendsHealthy != 0 || st.Cluster.JobErrors != 1 {
		t.Fatalf("%d backends healthy, %d job errors after the run, want 0 and 1",
			st.Cluster.BackendsHealthy, st.Cluster.JobErrors)
	}
	if w := f.do("GET", "/v1/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz over dead pool: HTTP %d, want 503", w.Code)
	}
}
