package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
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

// TestClusterTraceCorrelation is the tentpole's acceptance test: one
// client trace ID, sent with a sweep through the coordinator, shows up on
// the coordinator's /debug/traces (dispatch/attempt/merge spans) AND on
// the serving backends' /debug/traces with the stage spans — gate wait,
// store probe (with its tier), engine run — recorded under the same ID.
func TestClusterTraceCorrelation(t *testing.T) {
	f := newFabric(t, 2, Options{}, nil)
	req, _ := json.Marshal(api.SweepRequest{
		Configs: []string{"ssq", "ssq+svw"}, Benches: equivalenceBenches, Insts: testInsts})
	hdr := map[string]string{api.TraceHeader: "corr-sweep-1"}
	if w := f.do("POST", "/v1/sweep", string(req), hdr); w.Code != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", w.Code, w.Body.String())
	}

	// Coordinator side: one dispatch per distinct owner of the 4 cells,
	// each with at least one attempt child, merged once.
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
	if names["dispatch"] != len(owners) || names["attempt"] < len(owners) || names["merge"] != 1 {
		t.Fatalf("coordinator spans: %v, want %d dispatches", names, len(owners))
	}
	for _, sp := range ct.Spans {
		if sp.Name == "attempt" && sp.Attrs["backend"] == "" {
			t.Fatalf("attempt span without backend attr: %v", sp.Attrs)
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

// TestRetryTraceFollowsToWinningBackend: the primary backend 503s, the
// job retries onto the fallback, and the fallback's trace carries the
// coordinator's trace ID; the coordinator's trace shows both attempts.
func TestRetryTraceFollowsToWinningBackend(t *testing.T) {
	f := newFabric(t, 2, Options{}, func(i int, h http.Handler) http.Handler {
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

	// A job homed on the failing backend, so the first attempt 503s and
	// the retry walks to the healthy one.
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

	// Coordinator: one dispatch, two attempts — the 503 and the winner —
	// the second marked as a retry.
	ct := coordTrace(t, f, "retry-run-1")
	var failed, won, retries int
	for _, sp := range ct.Spans {
		if sp.Name != "attempt" {
			continue
		}
		switch sp.Attrs["status"] {
		case "503":
			failed++
		case "200":
			won++
			if sp.Attrs["backend"] != f.backends[1].URL {
				t.Fatalf("winning attempt on %s, want %s", sp.Attrs["backend"], f.backends[1].URL)
			}
		}
		if sp.Attrs["retry"] != "" {
			retries++
		}
	}
	if failed == 0 || won != 1 || retries == 0 {
		t.Fatalf("attempt spans: %d failed / %d won / %d retries; trace %+v", failed, won, retries, ct)
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

// TestHedgeTraceMarksAbandonedAttempt: a straggling primary gets hedged;
// the dispatch span synchronously records winner=hedge/abandoned=primary,
// and the abandoned primary's attempt span eventually observes its
// cancellation and is marked outcome=abandoned (it may land after the
// request finishes — the ring keeps the live trace, so polling sees it).
func TestHedgeTraceMarksAbandonedAttempt(t *testing.T) {
	f, cfg := newStragglerFabric(t)

	body, _ := json.Marshal(api.RunRequest{Config: cfg, Bench: "gcc", Insts: testInsts})
	hdr := map[string]string{api.TraceHeader: "hedge-run-1"}
	if w := f.do("POST", "/v1/run", string(body), hdr); w.Code != http.StatusOK {
		t.Fatalf("run: HTTP %d: %s", w.Code, w.Body.String())
	}

	// Synchronous markers, written before dispatch returned.
	ct := coordTrace(t, f, "hedge-run-1")
	var dispatch api.SpanJSON
	var haveDispatch bool
	for _, sp := range ct.Spans {
		if sp.Name == "dispatch" {
			dispatch, haveDispatch = sp, true
		}
	}
	if !haveDispatch {
		t.Fatalf("no dispatch span: %+v", ct)
	}
	if dispatch.Attrs["hedged"] != "true" || dispatch.Attrs["winner"] != "hedge" ||
		dispatch.Attrs["abandoned"] != "primary" {
		t.Fatalf("dispatch attrs: %v", dispatch.Attrs)
	}
	if dispatch.Attrs["backend"] != f.backends[1].URL {
		t.Fatalf("winning backend attr %q, want the fast one %q",
			dispatch.Attrs["backend"], f.backends[1].URL)
	}

	// The hedge winner's spans carry the trace ID on its backend.
	if _, ok := backendTrace(t, f.backends[1], "hedge-run-1"); !ok {
		t.Fatal("hedge-winning backend did not record the trace ID")
	}

	// The losing primary attempt observes its cancellation asynchronously:
	// poll the coordinator's ring until the abandoned marking lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ct := coordTrace(t, f, "hedge-run-1")
		abandoned := false
		for _, sp := range ct.Spans {
			if sp.Name == "attempt" && sp.Attrs["walk"] == "primary" &&
				sp.Attrs["outcome"] == "abandoned" {
				abandoned = true
			}
		}
		if abandoned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary attempt never marked abandoned; trace %+v", ct)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterSlowLogAndCounter: with slow logging at threshold 0 every
// traced coordinator request emits one slow_request line and bumps
// svw_slow_requests_total on the coordinator's /metrics.
func TestClusterSlowLogAndCounter(t *testing.T) {
	var buf syncBuffer
	f := newFabric(t, 2, Options{
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
