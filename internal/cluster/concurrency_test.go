package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// jobKey is the routing key of one (config, bench, testInsts) job.
func jobKey(t *testing.T, config, bench string) string {
	t.Helper()
	cfg, ok := sim.ConfigByName(config)
	if !ok {
		t.Fatalf("unknown config %q", config)
	}
	return engine.Fingerprint(cfg, bench, testInsts)
}

// TestConcurrentClients hammers the coordinator from many goroutines with
// a mix of runs, buffered sweeps, SSE sweeps and stats reads; run under
// -race (ci.sh does) this is the fabric's data-race gate. Hedging is
// enabled with an aggressive delay so the speculative path races the
// primary constantly, and every response must still be a clean 200.
func TestConcurrentClients(t *testing.T) {
	f := newFabric(t, 2, Options{
		BackendConcurrency: 4,
		HedgeAfter:         2 * time.Millisecond,
	}, nil)
	runBody := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	sweepB := sweepBody([]string{"ssq", "nlq"}, []string{"gcc"})
	sseHdr := map[string]string{"Accept": "text/event-stream"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var w *httptest.ResponseRecorder
				switch (c + i) % 4 {
				case 0:
					w = f.do("POST", "/v1/run", runBody, nil)
				case 1:
					w = f.do("POST", "/v1/sweep", sweepB, nil)
				case 2:
					w = f.do("POST", "/v1/sweep", sweepB, sseHdr)
				default:
					w = f.do("GET", "/v1/stats", "", nil)
				}
				mu.Lock()
				codes[w.Code]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for code, n := range codes {
		if code != http.StatusOK {
			t.Errorf("%d responses with HTTP %d, want only 200s", n, code)
		}
	}
	// Every job was counted exactly once despite the hedging storm.
	st := f.stats(t)
	wantJobs := uint64(0)
	for c := 0; c < 8; c++ {
		for i := 0; i < 6; i++ {
			switch (c + i) % 4 {
			case 0:
				wantJobs++
			case 1, 2:
				wantJobs += 2
			}
		}
	}
	if st.Cluster.Jobs+st.Cluster.JobErrors != wantJobs {
		t.Fatalf("jobs %d + errors %d, want exactly %d",
			st.Cluster.Jobs, st.Cluster.JobErrors, wantJobs)
	}
	if st.Cluster.JobErrors != 0 {
		t.Fatalf("%d job errors under concurrency", st.Cluster.JobErrors)
	}
}

// stragglerCap bounds how long the straggler of newStragglerFabric holds
// a request the hedge never beats.
const stragglerCap = 10 * time.Second

// newStragglerFabric builds a two-backend fabric that hedges after 20ms,
// whose first backend holds every job request — a run or a cell batch —
// until the request is cancelled
// — by the winning hedge, however long its simulation takes (the race
// detector slows it several-fold) — or stragglerCap passes. It returns
// the fabric and a registry config whose gcc job is homed on the
// straggler, skipping the test when none of the probe configs is.
func newStragglerFabric(t *testing.T) (*fabric, string) {
	t.Helper()
	f := newFabric(t, 2, Options{HedgeAfter: 20 * time.Millisecond}, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jobCells(r) > 0 {
				// The server notices the client hanging up, and cancels
				// r's context, only once the body has been read to EOF.
				body, err := io.ReadAll(r.Body)
				if err != nil {
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				timer := time.NewTimer(stragglerCap)
				defer timer.Stop()
				select {
				case <-timer.C:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	for _, cname := range []string{"ssq", "nlq", "rle", "ssq+svw", "base-ssq", "base-nlq"} {
		key := jobKey(t, cname, "gcc")
		if rendezvous.Rank([]string{f.backends[0].URL, f.backends[1].URL}, key)[0] == f.backends[0].URL {
			return f, cname
		}
	}
	t.Skip("no probe config homed on the slow backend")
	return nil, ""
}

// TestHedgedRequestWinsOverStraggler: a backend that answers slowly gets
// hedged onto the fast fallback, the client sees the fast answer, and the
// hedge is accounted (without double-counting the job).
func TestHedgedRequestWinsOverStraggler(t *testing.T) {
	f, slowKey := newStragglerFabric(t)

	body, _ := json.Marshal(api.RunRequest{Config: slowKey, Bench: "gcc", Insts: testInsts})
	start := time.Now()
	w := f.do("POST", "/v1/run", string(body), nil)
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refRunBody(t, slowKey, "gcc")) {
		t.Fatal("hedged response differs from reference")
	}
	if elapsed >= stragglerCap {
		t.Fatalf("response took %v, the hedge never beat the %v straggler", elapsed, stragglerCap)
	}
	st := f.stats(t)
	if st.Cluster.Hedges == 0 || st.Cluster.HedgeWins == 0 {
		t.Fatalf("hedges %d wins %d, want both > 0", st.Cluster.Hedges, st.Cluster.HedgeWins)
	}
	if st.Cluster.Jobs != 1 {
		t.Fatalf("jobs %d, want exactly 1 (hedge must not double-count)", st.Cluster.Jobs)
	}
}
