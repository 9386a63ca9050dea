package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
)

// Regression: the built-in backend client used to have no response-header
// timeout, so a backend that accepted the connection and then hung — wedged
// process, half-dead VM — pinned the job (and the client) forever instead
// of failing the attempt. With the bound set, the walk must give up on the
// hung backend and retry onto the next ranked one.
func TestHungBackendRetriedUnderHeaderTimeout(t *testing.T) {
	f := newFabric(t, 2, Options{ResponseHeaderTimeout: 300 * time.Millisecond},
		func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if jobCells(r) > 0 {
					// Accept the request, send nothing. The body must be
					// drained: the server starts its background read (the
					// thing that cancels r.Context on client disconnect) only
					// once the request body hits EOF, and blocking on the
					// context (bounded, not forever) lets the httptest server
					// shut down cleanly once the client abandons the attempt.
					io.Copy(io.Discard, r.Body)
					timer := time.NewTimer(waitTimeout)
					defer timer.Stop()
					select {
					case <-r.Context().Done():
					case <-timer.C:
					}
					return
				}
				h.ServeHTTP(w, r)
			})
		})

	// A job homed on the hung backend, so the first attempt stalls waiting
	// for headers and the retry walks to the healthy one.
	var cfg string
	for _, cname := range []string{"ssq", "nlq", "rle", "ssq+svw", "base-ssq", "base-nlq"} {
		key := jobKey(t, cname, "gcc")
		if rendezvous.Rank([]string{f.backends[0].URL, f.backends[1].URL}, key)[0] == f.backends[0].URL {
			cfg = cname
			break
		}
	}
	if cfg == "" {
		t.Skip("no probe config homed on the hung backend")
	}

	body, _ := json.Marshal(api.RunRequest{Config: cfg, Bench: "gcc", Insts: testInsts})
	start := time.Now()
	w := f.do("POST", "/v1/run", string(body), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("run through a fabric with one hung backend: HTTP %d: %s", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("answered in %v, before the header timeout — the job never "+
			"waited on the hung backend it was homed on", elapsed)
	}
	if !bytes.Equal(w.Body.Bytes(), refRunBody(t, cfg, "gcc")) {
		t.Fatal("retried response differs from the reference encoding")
	}

	st := f.stats(t)
	if st.Cluster.Retries == 0 {
		t.Fatalf("no retry recorded: %+v", st.Cluster)
	}
	if st.Cluster.JobErrors != 0 {
		t.Fatalf("job errors %d, want 0 — the retry should have saved the job", st.Cluster.JobErrors)
	}
}

// peersHeader is the membership snapshot svwd peer-learning trusts; it must
// be empty below two members (a singleton fabric has no peers to read from)
// and a stable comma join above.
func TestPeersHeader(t *testing.T) {
	if got := peersHeader(nil); got != "" {
		t.Fatalf("empty pool: %q", got)
	}
	if got := peersHeader([]*backend{{url: "http://a"}}); got != "" {
		t.Fatalf("singleton pool advertises %q, want nothing", got)
	}
	pool := []*backend{{url: "http://a"}, {url: "http://b"}, {url: "http://c"}}
	if got := peersHeader(pool); got != "http://a,http://b,http://c" {
		t.Fatalf("3-member pool: %q", got)
	}
}
