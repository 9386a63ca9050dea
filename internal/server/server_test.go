package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

const testInsts = 8_000

func newTestServer(opts Options) *Server {
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// do runs one request through the server's handler.
func do(s *Server, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
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
	s.Handler().ServeHTTP(w, r)
	return w
}

// directRunBody is the reference encoding: what `svwsim -json` prints for
// the same (config, bench, insts) job.
func directRunBody(t *testing.T, config, bench string) []byte {
	t.Helper()
	cfg, ok := sim.ConfigByName(config)
	if !ok {
		t.Fatalf("unknown config %q", config)
	}
	res, err := engine.Run(cfg, bench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	body, err := marshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestRunMatchesCLIEncoding(t *testing.T) {
	s := newTestServer(Options{})
	w := do(s, "POST", "/v1/run",
		fmt.Sprintf(`{"config":"ssq+svw","bench":"gcc","insts":%d}`, testInsts), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	want := directRunBody(t, "ssq+svw", "gcc")
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("response differs from svwsim -json encoding:\n got %s\nwant %s", w.Body, want)
	}
}

func TestRunValidation(t *testing.T) {
	s := newTestServer(Options{})
	cases := []struct {
		body string
		code int
	}{
		{`{"config":"no-such","bench":"gcc"}`, http.StatusBadRequest},
		{`{"config":"ssq","bench":"no-such"}`, http.StatusBadRequest},
		{`{"config":`, http.StatusBadRequest},
		{`{"config":"ssq","bench":"gcc","bogus":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := do(s, "POST", "/v1/run", c.body, nil); w.Code != c.code {
			t.Errorf("body %q: HTTP %d, want %d", c.body, w.Code, c.code)
		}
	}
	if w := do(s, "GET", "/v1/run", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: HTTP %d, want 405", w.Code)
	}
}

func TestBodySizeLimit(t *testing.T) {
	s := newTestServer(Options{MaxBodyBytes: 64})
	big := `{"config":"ssq","bench":"gcc","insts":1,` +
		`"pad":"` + strings.Repeat("x", 200) + `"}`
	if w := do(s, "POST", "/v1/run", big, nil); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413", w.Code)
	}
}

func TestRegistryAndHealthEndpoints(t *testing.T) {
	s := newTestServer(Options{})
	var cfgs ConfigsResponse
	w := do(s, "GET", "/v1/configs", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &cfgs); err != nil {
		t.Fatal(err)
	}
	if len(cfgs.Configs) != len(sim.ConfigNames()) {
		t.Fatalf("got %d configs, want %d", len(cfgs.Configs), len(sim.ConfigNames()))
	}
	var bn BenchesResponse
	w = do(s, "GET", "/v1/benches", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &bn); err != nil {
		t.Fatal(err)
	}
	if len(bn.Benches) == 0 {
		t.Fatal("no benches listed")
	}
	if w := do(s, "GET", "/v1/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz HTTP %d", w.Code)
	}
	s.SetDraining(true)
	if w := do(s, "GET", "/v1/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz HTTP %d, want 503", w.Code)
	}
}

// cacheStats fetches /v1/stats and returns the cache counters.
func cacheStats(t *testing.T, s *Server) CacheStats {
	t.Helper()
	var st StatsResponse
	w := do(s, "GET", "/v1/stats", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Cache
}

func TestCacheHitMissAccounting(t *testing.T) {
	s := newTestServer(Options{})
	body := fmt.Sprintf(`{"config":"ssq","bench":"twolf","insts":%d}`, testInsts)
	first := do(s, "POST", "/v1/run", body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", first.Code, first.Body)
	}
	st := cacheStats(t, s)
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first run: %+v, want 0 hits / 1 miss", st)
	}
	second := do(s, "POST", "/v1/run", body, nil)
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("cached response differs from the original")
	}
	st = cacheStats(t, s)
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat run: %+v, want 1 hit / 1 miss", st)
	}
	// The engine must not have been consulted for the repeat: one unique
	// execution, zero memo hits.
	m := s.engineStats()
	if m.MemoMisses != 1 || m.MemoHits != 0 {
		t.Fatalf("engine %+v, want the repeat served above the engine", m)
	}
}

func TestSaturationReturns429ButServesCache(t *testing.T) {
	s := newTestServer(Options{MaxConcurrentJobs: 2})
	warm := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/run", warm, nil); w.Code != http.StatusOK {
		t.Fatalf("warmup HTTP %d", w.Code)
	}
	// Occupy the whole gate, as two long-running requests would.
	release, ok := s.gate.tryAcquire("", 2)
	if !ok {
		t.Fatal("could not occupy gate")
	}
	defer release()

	cold := fmt.Sprintf(`{"config":"nlq","bench":"gcc","insts":%d}`, testInsts)
	w := do(s, "POST", "/v1/run", cold, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("uncached run on a saturated gate: HTTP %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Sweeps needing engine work are refused too...
	sweep := fmt.Sprintf(`{"configs":["nlq"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/sweep", sweep, nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("uncached sweep on a saturated gate: HTTP %d, want 429", w.Code)
	}
	// ...but the cached request is still served: no engine work needed.
	if w := do(s, "POST", "/v1/run", warm, nil); w.Code != http.StatusOK {
		t.Fatalf("cached run on a saturated gate: HTTP %d, want 200", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(do(s, "GET", "/v1/stats", "", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.Rejected != 2 {
		t.Fatalf("rejected %d, want 2", st.Admission.Rejected)
	}
}

func TestSweepMatchesCLIEncodingAndOrder(t *testing.T) {
	s := newTestServer(Options{})
	body := fmt.Sprintf(`{"configs":["ssq","ssq+svw"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)
	w := do(s, "POST", "/v1/sweep", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	// Reference: config-major × bench-minor, each job encoded like the CLI.
	var want []byte
	for _, cfg := range []string{"ssq", "ssq+svw"} {
		for _, b := range []string{"gcc", "twolf"} {
			want = append(want, directRunBody(t, cfg, b)...)
		}
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("sweep body differs from the equivalent svwsim -json sequence")
	}
	// Repeating the sweep serves every job from the cache.
	before := cacheStats(t, s)
	do(s, "POST", "/v1/sweep", body, nil)
	after := cacheStats(t, s)
	if hits := after.Hits - before.Hits; hits != 4 {
		t.Fatalf("repeat sweep got %d cache hits, want 4", hits)
	}
}

func TestSweepValidation(t *testing.T) {
	s := newTestServer(Options{MaxSweepJobs: 4})
	cases := []struct {
		body string
		code int
	}{
		{`{"configs":[],"benches":["gcc"]}`, http.StatusBadRequest},
		{`{"configs":["ssq"],"benches":[]}`, http.StatusBadRequest},
		{`{"configs":["no-such"],"benches":["gcc"]}`, http.StatusBadRequest},
		{`{"configs":["ssq"],"benches":["no-such"]}`, http.StatusBadRequest},
		{`{"configs":["ssq","nlq","rle"],"benches":["gcc","twolf"]}`, http.StatusBadRequest}, // 6 > 4
	}
	for _, c := range cases {
		if w := do(s, "POST", "/v1/sweep", c.body, nil); w.Code != c.code {
			t.Errorf("body %q: HTTP %d, want %d", c.body, w.Code, c.code)
		}
	}
}

// parseSSE parses an event-stream body via the shared api parser.
func parseSSE(t *testing.T, body string) []api.Event {
	t.Helper()
	events, err := api.ParseEvents(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestSweepSSEOrdering(t *testing.T) {
	s := newTestServer(Options{})
	configs := []string{"ssq", "ssq+svw"}
	benches := []string{"gcc", "twolf"}
	body := fmt.Sprintf(`{"configs":["ssq","ssq+svw"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)
	hdr := map[string]string{"Accept": "text/event-stream"}

	check := func(wantCached bool) {
		t.Helper()
		w := do(s, "POST", "/v1/sweep", body, hdr)
		if w.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type %q", ct)
		}
		events := parseSSE(t, w.Body.String())
		if len(events) != 5 {
			t.Fatalf("got %d events, want 4 results + done", len(events))
		}
		for i := 0; i < 4; i++ {
			ev := events[i]
			if ev.Name != "result" || ev.ID != i {
				t.Fatalf("event %d: name %q id %d, want result/%d (SSE must arrive in job-index order)",
					i, ev.Name, ev.ID, i)
			}
			var data SweepEvent
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatal(err)
			}
			wantCfg, wantBench := configs[i/2], benches[i%2]
			gotCfg, _ := sim.ConfigByName(wantCfg)
			if data.Index != i || data.Bench != wantBench || data.Config != gotCfg.Name {
				t.Fatalf("event %d: %+v, want index %d %s on %s", i, data, i, gotCfg.Name, wantBench)
			}
			if data.Cached != wantCached {
				t.Fatalf("event %d: cached=%v, want %v", i, data.Cached, wantCached)
			}
			if data.Error != "" || len(data.Result) == 0 {
				t.Fatalf("event %d: error=%q result len %d", i, data.Error, len(data.Result))
			}
		}
		last := events[4]
		if last.Name != "done" {
			t.Fatalf("final event %q, want done", last.Name)
		}
		var done SweepDone
		if err := json.Unmarshal(last.Data, &done); err != nil {
			t.Fatal(err)
		}
		if done.Jobs != 4 || done.Errors != 0 {
			t.Fatalf("done %+v", done)
		}
	}
	check(false) // first pass: everything computed
	check(true)  // second pass: everything from the LRU, same ordering
}

// TestConcurrentClients hammers run and sweep from many goroutines; run
// under -race this is the server's data-race gate, and every response must
// be either a success or a clean 429.
func TestConcurrentClients(t *testing.T) {
	s := newTestServer(Options{MaxConcurrentJobs: 4})
	runBody := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	sweepBody := fmt.Sprintf(`{"configs":["ssq","nlq"],"benches":["gcc"],"insts":%d}`, testInsts)
	sseHdr := map[string]string{"Accept": "text/event-stream"}

	var wg sync.WaitGroup
	var ok200, ok429 int64
	var mu sync.Mutex
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var w *httptest.ResponseRecorder
				switch (c + i) % 3 {
				case 0:
					w = do(s, "POST", "/v1/run", runBody, nil)
				case 1:
					w = do(s, "POST", "/v1/sweep", sweepBody, nil)
				default:
					w = do(s, "POST", "/v1/sweep", sweepBody, sseHdr)
				}
				mu.Lock()
				switch w.Code {
				case http.StatusOK:
					ok200++
				case http.StatusTooManyRequests:
					ok429++
				default:
					t.Errorf("unexpected HTTP %d: %s", w.Code, w.Body)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if ok200 == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("200=%d 429=%d", ok200, ok429)
}

func TestStudyEndpoints(t *testing.T) {
	s := newTestServer(Options{})
	w := do(s, "GET", fmt.Sprintf("/v1/studies/ladder?fig=5&benches=gcc,twolf&insts=%d", testInsts), "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("ladder HTTP %d: %s", w.Code, w.Body)
	}
	var ladder sim.LadderJSON
	if err := json.Unmarshal(w.Body.Bytes(), &ladder); err != nil {
		t.Fatal(err)
	}
	if ladder.Name != "fig5-nlq" || len(ladder.Benches) != 2 {
		t.Fatalf("ladder %+v", ladder)
	}
	// Repeat is served from the store cell by cell: byte-identical, one
	// hit per cell (2 benches x 5 rungs), no new misses.
	before := cacheStats(t, s)
	w2 := do(s, "GET", fmt.Sprintf("/v1/studies/ladder?fig=5&benches=gcc,twolf&insts=%d", testInsts), "", nil)
	if !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("cached study response differs")
	}
	after := cacheStats(t, s)
	if hits := after.Hits + after.DiskHits + after.PeerHits - before.Hits - before.DiskHits - before.PeerHits; hits != 10 || after.Misses != before.Misses {
		t.Fatalf("study repeat was not 10 cell hits: %+v -> %+v", before, after)
	}

	w = do(s, "GET", fmt.Sprintf("/v1/studies/ssn?benches=gcc&bits=8,0&insts=%d", testInsts), "", nil)
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

	w = do(s, "GET", fmt.Sprintf("/v1/studies/ssbf?benches=gcc&insts=%d", testInsts), "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("ssbf HTTP %d: %s", w.Code, w.Body)
	}

	// Validation.
	if w := do(s, "GET", "/v1/studies/ladder?benches=gcc", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("ladder without fig: HTTP %d, want 400", w.Code)
	}
	if w := do(s, "GET", "/v1/studies/nope", "", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown study: HTTP %d, want 404", w.Code)
	}
	if w := do(s, "GET", "/v1/studies/ssn?bits=-1", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("negative bits: HTTP %d, want 400", w.Code)
	}
}
