package metrics

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// codeCount reads svw_http_requests_total{endpoint,code} from the
// registry's text exposition — asserting on what a scraper would ingest,
// not on wrapper internals.
func codeCount(t *testing.T, reg *Registry, endpoint string, code string) string {
	t.Helper()
	var sb strings.Builder
	reg.WriteText(&sb)
	needle := `svw_http_requests_total{code="` + code + `",endpoint="` + endpoint + `"}`
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, needle) {
			return strings.TrimSpace(strings.TrimPrefix(line, needle))
		}
	}
	return ""
}

func TestWrapCountsImplicit200(t *testing.T) {
	// A handler that never calls WriteHeader (and writes no body at all):
	// net/http sends 200 on return, and the counter must agree.
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/quiet", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/quiet", nil))
	if got := codeCount(t, reg, "/v1/quiet", "200"); got != "1" {
		t.Fatalf("implicit 200 count = %q, want 1", got)
	}
}

func TestWrapCountsWriteOnly200(t *testing.T) {
	// Write without WriteHeader implies 200.
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/body", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/body", nil))
	if got := codeCount(t, reg, "/v1/body", "200"); got != "1" {
		t.Fatalf("write-implied 200 count = %q, want 1", got)
	}
}

func TestWrapCountsErrorStatus(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/bad", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/bad", nil))
	if got := codeCount(t, reg, "/v1/bad", "400"); got != "1" {
		t.Fatalf("400 count = %q, want 1", got)
	}
	if got := codeCount(t, reg, "/v1/bad", "200"); got != "" {
		t.Fatalf("spurious 200 series: %q", got)
	}
}

func TestWrapFirstWriteHeaderWins(t *testing.T) {
	// A handler that sets a status and then (buggily) sets another: the
	// wire carries the first, so the counter must too.
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/double", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/double", nil))
	if got := codeCount(t, reg, "/v1/double", "429"); got != "1" {
		t.Fatalf("first-write 429 count = %q, want 1", got)
	}
	if got := codeCount(t, reg, "/v1/double", "500"); got != "" {
		t.Fatalf("second WriteHeader leaked into the counter: %q", got)
	}
}

func TestWrapCountsSSEDisconnectAs200(t *testing.T) {
	// An SSE handler that streamed some events (200 + flushes) and then
	// bailed mid-stream because the client vanished: the request completed
	// with the status it sent, 200 — a disconnect is not a server error.
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/sweep", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("event: result\ndata: {}\n\n"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// client gone: handler returns without a "done" event
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/sweep", nil))
	if got := codeCount(t, reg, "/v1/sweep", "200"); got != "1" {
		t.Fatalf("mid-stream bail 200 count = %q, want 1", got)
	}
}

func TestWrapCountsPanicBeforeWriteAs500(t *testing.T) {
	// net/http recovers handler panics, so without defer-based accounting
	// a panicking handler would be invisible in the request counter. The
	// wrapper must count it (500 when nothing was written) and re-panic.
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("wrapper swallowed the panic")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/boom", nil))
	}()
	if got := codeCount(t, reg, "/v1/boom", "500"); got != "1" {
		t.Fatalf("panic-before-write 500 count = %q, want 1", got)
	}
}

func TestWrapCountsPanicAfterWriteAsWrittenStatus(t *testing.T) {
	// A handler that wrote a real status before dying: the client saw that
	// status (plus a torn body), so that is what gets counted.
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/torn", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() { recover() }()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/torn", nil))
	}()
	if got := codeCount(t, reg, "/v1/torn", "502"); got != "1" {
		t.Fatalf("panic-after-write 502 count = %q, want 1", got)
	}
	if got := codeCount(t, reg, "/v1/torn", "500"); got != "" {
		t.Fatalf("written status overridden by panic default: %q", got)
	}
}

func TestWrapObservesLatencyOnPanic(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTP(reg).Wrap("/v1/boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	func() {
		defer func() { recover() }()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/boom", nil))
	}()
	var sb strings.Builder
	reg.WriteText(&sb)
	if !strings.Contains(sb.String(), `svw_http_request_seconds_count{endpoint="/v1/boom"} 1`) {
		t.Fatalf("latency histogram missed the panicking request:\n%s", sb.String())
	}
}

// TestRequestsSumsCodesPerEndpoint: Requests adds an endpoint's counts
// over every status code and never mixes in another endpoint, even one
// whose name extends it.
func TestRequestsSumsCodesPerEndpoint(t *testing.T) {
	h := NewHTTP(NewRegistry())
	code := http.StatusOK
	wrap := func(endpoint string) http.Handler {
		return h.Wrap(endpoint, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
		}))
	}
	run, runs := wrap("/v1/run"), wrap("/v1/runs")
	for _, c := range []int{http.StatusOK, http.StatusOK, http.StatusTooManyRequests, http.StatusBadGateway} {
		code = c
		run.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/run", nil))
	}
	runs.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/runs", nil))
	if got := h.Requests("/v1/run"); got != 4 {
		t.Errorf("Requests(/v1/run) = %d, want 4", got)
	}
	if got := h.Requests("/v1/sweep"); got != 0 {
		t.Errorf("Requests(/v1/sweep) = %d, want 0", got)
	}
}
