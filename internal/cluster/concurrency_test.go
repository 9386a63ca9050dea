package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"svwsim/internal/server"
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

// TestConcurrentClients hammers the coordinator from many goroutines with a mix of
// runs, buffered sweeps, SSE sweeps and stats reads; run under -race
// (ci.sh does) this is the fabric's data-race gate, and every response
// must be a clean 200.
func TestConcurrentClients(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
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
	// Every job was counted exactly once.
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
