package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
)

// coordTrace looks one trace up on the coordinator's /debug/traces.
func coordTrace(t *testing.T, f *fabric, id string) api.TraceJSON {
	t.Helper()
	w := f.do("GET", "/debug/traces?id="+id, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("coordinator GET /debug/traces?id=%s: HTTP %d: %s", id, w.Code, w.Body.String())
	}
	var tj api.TraceJSON
	if err := json.Unmarshal(w.Body.Bytes(), &tj); err != nil {
		t.Fatal(err)
	}
	return tj
}

// backendTrace looks one trace up on a backend's /debug/traces over real
// HTTP, reporting whether that backend recorded the ID at all.
func backendTrace(t *testing.T, ts *httptest.Server, id string) (api.TraceJSON, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/traces?id=" + id)
	if err != nil {
		t.Fatalf("backend traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return api.TraceJSON{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend GET /debug/traces?id=%s: HTTP %d", id, resp.StatusCode)
	}
	var tj api.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	return tj, true
}

func countSpans(tj api.TraceJSON) map[string]int {
	names := make(map[string]int)
	for _, sp := range tj.Spans {
		names[sp.Name]++
	}
	return names
}

// TestClusterTraceCorrelation: one client trace ID, sent with a sweep
// through the coordinator, shows up on the coordinator's /debug/traces (store probe plus one
// forward span per owner) AND on the serving backends' /debug/traces with
// the stage spans — gate wait, store probe (with its tier), engine run —
// recorded under the same ID.
func TestClusterTraceCorrelation(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, nil)
	req, _ := json.Marshal(api.SweepRequest{
		Configs: []string{"ssq", "ssq+svw"}, Benches: equivalenceBenches, Insts: testInsts})
	hdr := map[string]string{api.TraceHeader: "corr-sweep-1"}
	if w := f.do("POST", "/v1/sweep", string(req), hdr); w.Code != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", w.Code, w.Body.String())
	}

	// The coordinator's side: one forward per distinct owner of the 4 cells.
	urls := []string{f.backends[0].URL, f.backends[1].URL}
	owners := map[string]bool{}
	for _, cname := range []string{"ssq", "ssq+svw"} {
		for _, bench := range equivalenceBenches {
			owners[rendezvous.Rank(urls, jobKey(t, cname, bench))[0]] = true
		}
	}
	ct := coordTrace(t, f, "corr-sweep-1")
	if ct.Endpoint != "/v1/sweep" || !ct.Done {
		t.Fatalf("coordinator trace: endpoint=%s done=%v", ct.Endpoint, ct.Done)
	}
	names := countSpans(ct)
	if names["forward"] != len(owners) || names["store_probe"] != 1 {
		t.Fatalf("coordinator spans: %v, want %d forwards", names, len(owners))
	}
	for _, sp := range ct.Spans {
		if sp.Name == "forward" && (!owners[sp.Attrs["member"]] || sp.Attrs["status"] != "200") {
			t.Fatalf("forward span attrs %v, want an owner and status 200", sp.Attrs)
		}
	}

	// Backend side: every backend that served a cell recorded the same ID
	// with the stage spans; rendezvous may have put all cells on one
	// backend, but at least one must have it.
	found := 0
	for i, ts := range f.backends {
		bt, ok := backendTrace(t, ts, "corr-sweep-1")
		if !ok {
			continue
		}
		found++
		if bt.TraceID != "corr-sweep-1" || bt.Endpoint != "/v1/sweep" {
			t.Fatalf("backend %d trace: id=%s endpoint=%s", i, bt.TraceID, bt.Endpoint)
		}
		bn := countSpans(bt)
		for _, want := range []string{"store_probe", "gate_wait", "engine_run", "engine_job"} {
			if bn[want] == 0 {
				t.Fatalf("backend %d missing %s span: %v", i, want, bn)
			}
		}
		for _, sp := range bt.Spans {
			// A one-cell batch's probe names its tier; a wider one tallies.
			if sp.Name == "store_probe" && sp.Attrs["tier"] == "" && sp.Attrs["misses"] == "" {
				t.Fatalf("backend %d store_probe without tier or tally attrs: %v", i, sp.Attrs)
			}
		}
	}
	if found == 0 {
		t.Fatal("no backend recorded the coordinator's trace ID")
	}
}

// TestRetryTraceFollowsToWinningBackend: the owner 503s, the cell walks on
// to the next backend, and that backend's trace carries the coordinator's trace ID;
// the coordinator's trace shows both forwards.
func TestRetryTraceFollowsToWinningBackend(t *testing.T) {
	f := newFabric(t, 2, server.Options{}, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jobCells(r) > 0 {
				api.WriteError(w, http.StatusServiceUnavailable, "injected fault: backend down")
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	// A job homed on the failing backend, so the first forward 503s and
	// the cell walks on to the healthy one.
	var cfg string
	for _, cname := range []string{"ssq", "nlq", "rle", "ssq+svw", "base-ssq", "base-nlq"} {
		key := jobKey(t, cname, "gcc")
		if rendezvous.Rank([]string{f.backends[0].URL, f.backends[1].URL}, key)[0] == f.backends[0].URL {
			cfg = cname
			break
		}
	}
	if cfg == "" {
		t.Skip("no probe config homed on the failing backend")
	}

	body, _ := json.Marshal(api.RunRequest{Config: cfg, Bench: "gcc", Insts: testInsts})
	hdr := map[string]string{api.TraceHeader: "retry-run-1"}
	if w := f.do("POST", "/v1/run", string(body), hdr); w.Code != http.StatusOK {
		t.Fatalf("run: HTTP %d: %s", w.Code, w.Body.String())
	}

	// The coordinator: two forwards — the 503 and the winner, the second at hop 1.
	ct := coordTrace(t, f, "retry-run-1")
	var failed, won, retries int
	for _, sp := range ct.Spans {
		if sp.Name != "forward" {
			continue
		}
		switch sp.Attrs["status"] {
		case "503":
			failed++
		case "200":
			won++
			if sp.Attrs["member"] != f.backends[1].URL {
				t.Fatalf("winning forward to %s, want %s", sp.Attrs["member"], f.backends[1].URL)
			}
		}
		if sp.Attrs["hop"] != "" {
			retries++
		}
	}
	if failed != 1 || won != 1 || retries != 1 {
		t.Fatalf("forward spans: %d failed / %d won / %d at a later hop; trace %+v", failed, won, retries, ct)
	}

	// The winning backend's own trace carries the same ID.
	bt, ok := backendTrace(t, f.backends[1], "retry-run-1")
	if !ok {
		t.Fatal("winning backend did not record the trace ID")
	}
	if bn := countSpans(bt); bn["engine_run"] == 0 {
		t.Fatalf("winning backend spans: %v", bn)
	}
	// The 503ing wrapper answered before svwd's tracer: no trace there.
	if _, ok := backendTrace(t, f.backends[0], "retry-run-1"); ok {
		t.Fatal("failed backend recorded a trace despite never reaching the daemon")
	}
}

// TestClusterSlowLogAndCounter: with slow logging at threshold 0 every
// traced coordinator request emits one slow_request line and bumps
// svw_slow_requests_total on the coordinator's /metrics.
func TestClusterSlowLogAndCounter(t *testing.T) {
	var buf syncBuffer
	f := newFabric(t, 2, server.Options{
		SlowLogEnabled:   true,
		SlowLogThreshold: 0,
		SlowLogWriter:    &buf,
	}, nil)
	body, _ := json.Marshal(api.RunRequest{Config: "ssq", Bench: "gcc", Insts: testInsts})
	if w := f.do("POST", "/v1/run", string(body), nil); w.Code != http.StatusOK {
		t.Fatalf("run: HTTP %d", w.Code)
	}
	var got struct {
		Msg      string `json:"msg"`
		Endpoint string `json:"endpoint"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("slow line not JSON: %v\n%s", err, buf.String())
	}
	if got.Msg != "slow_request" || got.Endpoint != "/v1/run" {
		t.Fatalf("slow line: %+v", got)
	}
	w := f.do("GET", "/metrics", "", nil)
	if want := `svw_slow_requests_total{endpoint="/v1/run"} 1`; !strings.Contains(w.Body.String(), want) {
		t.Fatalf("coordinator metrics missing %q", want)
	}
}

// syncBuffer is a mutex-guarded byte buffer for log capture under -race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
