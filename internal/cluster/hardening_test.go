package cluster

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"svwsim/internal/api"
)

// TestClusterMetricsEndpoint exercises svwctl's scrape surface: the shared
// per-endpoint request series plus svwctl's routing counters and the
// per-backend breakdown.
func TestClusterMetricsEndpoint(t *testing.T) {
	f := newFabric(t, 2, Options{}, nil)
	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := f.do("POST", "/v1/run", body, nil); w.Code != http.StatusOK {
		t.Fatalf("run HTTP %d: %s", w.Code, w.Body)
	}

	w := f.do("GET", "/metrics", "", nil)
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
		"\nsvwctl_runs_total 1\n",
		"\nsvwctl_jobs_total 1\n",
		"\nsvwctl_job_errors_total 0\n",
		`svwctl_backend_requests_total{backend="`,
		`svwctl_backend_in_flight{backend="`,
		`svwctl_backend_healthy{backend="`,
		`svwctl_backend_health_flaps_total{backend="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
}

// TestClusterDeadlineReturns504 pins deadline propagation through svwctl:
// a budget the backends cannot meet yields 504, and the aborted forward
// must not be mistaken for a backend failure (no down mark).
func TestClusterDeadlineReturns504(t *testing.T) {
	f := newFabric(t, 2, Options{}, nil)
	// ~100k instructions: far beyond a 1ms budget on any hardware, small
	// enough that the backend finishes promptly at teardown.
	body := `{"config":"ssq","bench":"gcc","insts":100000}`
	w := f.do("POST", "/v1/run", body, map[string]string{api.DeadlineHeader: "1"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("run HTTP %d, want 504 (%s)", w.Code, w.Body)
	}
	if got := f.stats(t).Cluster.BackendsHealthy; got != 2 {
		t.Fatalf("%d backends healthy after a deadline abort, want 2", got)
	}
	w = f.do("POST", "/v1/run", body, map[string]string{api.DeadlineHeader: "nope"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("invalid deadline header: HTTP %d, want 400", w.Code)
	}
}
