package server

// Regression tests for the production-hardening fixes: the SSE sweep
// handler outliving a disconnected client, counters inflated by work
// never served, lax request-body decoding, weighted fair admission and
// request deadlines.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/raceflag"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// TestStreamSweepClientDisconnectNoHandlerLeak reproduces the SSE stall:
// a client opens a streaming sweep whose first job is cached (so the
// stream starts immediately) and whose second is a long engine job, then
// disconnects. The handler used to block on the engine's next result —
// parked for the job's full runtime even though no one was listening.
// Post-fix it must notice the dead request context and return promptly.
func TestStreamSweepClientDisconnectNoHandlerLeak(t *testing.T) {
	// Big enough that the uncached job runs far longer than the assertion
	// window below, on either side of the race detector's slowdown.
	bigInsts := uint64(8_000_000)
	if raceflag.Enabled {
		bigInsts = 1_500_000
	}

	s := newTestServer(Options{Workers: 1})
	cfg, ok := sim.ConfigByName("ssq")
	if !ok {
		t.Fatal("unknown config ssq")
	}
	// Pre-warm job 0 so the stream emits an event (and the client can
	// witness the stream is live) before the engine delivers anything.
	s.store.Put(engine.Fingerprint(cfg, "gcc", bigInsts), []byte("{}\n"))

	var inflight atomic.Int32
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := fmt.Sprintf(`{"configs":["ssq","nlq"],"benches":["gcc"],"insts":%d}`, bigInsts)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first byte of the cached event, then walk away
	// mid-stream with the engine still chewing on job 1.
	if _, err := res.Body.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	res.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep handler still running 2s after its client disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailedSweepLeavesCountersUntouched pins serve-time accounting: a
// sweep (or run) that fails before anything is served must not move the
// store counters. The planned misses used to be charged up front.
func TestFailedSweepLeavesCountersUntouched(t *testing.T) {
	// A nanosecond job timeout fails every execution without touching the
	// deadline machinery (the engine reports a plain timeout error: 500).
	s := newTestServer(Options{JobTimeout: time.Nanosecond})

	body := fmt.Sprintf(`{"configs":["ssq"],"benches":["gcc"],"insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/sweep", body, nil); w.Code != http.StatusInternalServerError {
		t.Fatalf("sweep HTTP %d, want 500", w.Code)
	}
	if st := cacheStats(t, s); st.Hits != 0 || st.DiskHits != 0 || st.Misses != 0 {
		t.Fatalf("counters moved by a failed sweep: %+v, want all zero", st)
	}

	run := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/run", run, nil); w.Code != http.StatusInternalServerError {
		t.Fatalf("run HTTP %d, want 500", w.Code)
	}
	if st := cacheStats(t, s); st.Hits != 0 || st.DiskHits != 0 || st.Misses != 0 {
		t.Fatalf("counters moved by a failed run: %+v, want all zero", st)
	}
}

// TestDecodeBodyRejectsTrailingGarbage pins strict decoding: a valid
// JSON object followed by anything but whitespace is a 400, not silently
// accepted with the tail discarded.
func TestDecodeBodyRejectsTrailingGarbage(t *testing.T) {
	s := newTestServer(Options{})
	valid := `{"config":"ssq","bench":"gcc","insts":100}`
	cases := []struct {
		name string
		body string
		code int
	}{
		{"trailing junk", valid + ` junk`, http.StatusBadRequest},
		{"second object", valid + `{"config":"ssq"}`, http.StatusBadRequest},
		{"trailing array", valid + `[]`, http.StatusBadRequest},
		{"trailing whitespace", valid + " \n\t\n", http.StatusOK},
		{"exact object", valid, http.StatusOK},
	}
	for _, c := range cases {
		if w := do(s, "POST", "/v1/run", c.body, nil); w.Code != c.code {
			t.Errorf("%s: HTTP %d, want %d (%s)", c.name, w.Code, c.code, w.Body)
		}
	}
	sweep := `{"configs":["ssq"],"benches":["gcc"],"insts":100}`
	if w := do(s, "POST", "/v1/sweep", sweep+`x`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("sweep trailing junk: HTTP %d, want 400", w.Code)
	}
}

// TestFairAdmissionProtectsInteractive pins the weighted gate end to end:
// a tenant that has eaten its share is refused while another tenant's
// request still goes through on the same gate.
func TestFairAdmissionProtectsInteractive(t *testing.T) {
	s := newTestServer(Options{
		MaxConcurrentJobs:   10,
		ClientWeights:       map[string]int{"bulk": 4, "fast": 4},
		DefaultClientWeight: 2,
	})
	// Occupy bulk's entire share (W = 10, so 10·4/10 = 4 units).
	rel, ok := s.gate.tryAcquire("bulk", 4)
	if !ok {
		t.Fatal("could not seed bulk's share")
	}
	defer rel()

	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	w := do(s, "POST", "/v1/run", body, map[string]string{api.ClientHeader: "bulk"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("bulk over its share: HTTP %d, want 429 (%s)", w.Code, w.Body)
	}
	w = do(s, "POST", "/v1/run", body, map[string]string{api.ClientHeader: "fast"})
	if w.Code != http.StatusOK {
		t.Fatalf("fast within its share: HTTP %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestDeadlineExceededReturns504AndStopsEngine pins the deadline path: a
// hopeless budget yields 504 (not 500), stops queued engine work instead
// of running the whole sweep, and counts nothing in the store.
func TestDeadlineExceededReturns504AndStopsEngine(t *testing.T) {
	s := newTestServer(Options{Workers: 1})
	hdr := map[string]string{api.DeadlineHeader: "1"}

	body := fmt.Sprintf(`{"configs":["ssq","nlq"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/sweep", body, hdr); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("sweep HTTP %d, want 504 (%s)", w.Code, w.Body)
	}
	// At most the job already executing when the deadline fired ran; the
	// queued remainder must have been skipped.
	if m := s.engineStats(); m.MemoMisses >= 4 {
		t.Fatalf("engine executed %d jobs under a 1ms deadline, want < 4", m.MemoMisses)
	}
	if st := cacheStats(t, s); st.Misses != 0 {
		t.Fatalf("store counted %d misses for a timed-out sweep, want 0", st.Misses)
	}

	// A single already-executing run legitimately completes (the engine
	// never abandons an executing job), so /v1/run checks the success path:
	// a generous budget must not disturb a normal response.
	run := fmt.Sprintf(`{"config":"ssq+svw","bench":"gcc","insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/run", run, map[string]string{api.DeadlineHeader: "60000"}); w.Code != http.StatusOK {
		t.Fatalf("run with generous deadline: HTTP %d, want 200 (%s)", w.Code, w.Body)
	}

	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		w := do(s, "POST", "/v1/run", run, map[string]string{api.DeadlineHeader: bad})
		if w.Code != http.StatusBadRequest {
			t.Errorf("deadline %q: HTTP %d, want 400", bad, w.Code)
		}
	}
}

// TestMetricsEndpoint exercises the scrape surface: request counters and
// latency histograms, stage timings, gate occupancy and store tiers all
// show up in Prometheus text form after one served run.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(Options{})
	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/run", body, nil); w.Code != http.StatusOK {
		t.Fatalf("run HTTP %d: %s", w.Code, w.Body)
	}

	w := do(s, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics HTTP %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	text := w.Body.String()
	for _, want := range []string{
		`svw_http_requests_total{code="200",endpoint="/v1/run"} 1`,
		`svw_http_request_seconds_bucket{endpoint="/v1/run",le="`,
		"\nsvw_gate_in_use 0\n",
		`svw_stage_seconds_bucket{stage="engine_run",le="`,
		`svw_store_requests_total{tier="miss"} 1`,
		`svw_store_requests_total{tier="memory"} 0`,
		"\nsvw_store_promotion_evictions_total 0\n",
		"\nsvw_store_promotions_deferred_total 0\n",
		"\nsvw_store_disk_corrupt_total 0\n",
		`svw_engine_memo_misses_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
}
