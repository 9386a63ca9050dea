package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
)

// Regression: the forwarding client used to have no response-header
// timeout, so a backend that accepted the connection and then hung — wedged
// process, half-dead VM — pinned the job (and the client) forever instead
// of failing the forward. With the bound set, the cell must give up on the
// hung backend and walk on to the next ranked one.
func TestHungBackendRetriedUnderHeaderTimeout(t *testing.T) {
	f := newFabric(t, 2, server.Options{ForwardHeaderTimeout: 300 * time.Millisecond},
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

	// A job homed on the hung backend, so the first forward stalls waiting
	// for headers and the cell walks on to the healthy one.
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

// TestPeersHeader: every forwarded batch is marked, and carries the coordinator's
// members and the URL the backend was addressed by — the membership
// payload a -peer-learn backend adopts as its sharding map.
func TestPeersHeader(t *testing.T) {
	var mu sync.Mutex
	got := map[string]http.Header{}
	f := newFabric(t, 2, server.Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jobCells(r) > 0 {
				mu.Lock()
				got[r.Host] = r.Header.Clone()
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	w := f.do("POST", "/v1/sweep", sweepBody(membershipConfigs, equivalenceBenches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", w.Code, w.Body)
	}
	members := strings.Join(members(f.c), ",")
	if len(got) == 0 {
		t.Fatal("no backend saw a batch")
	}
	for host, hdr := range got {
		if hdr.Get(api.ForwardedHeader) == "" || hdr.Get(api.PeersHeader) != members ||
			hdr.Get(api.PeerSelfHeader) != "http://"+host {
			t.Errorf("batch to %s: %s=%q %s=%q %s=%q, want marked, %q, %q", host,
				api.ForwardedHeader, hdr.Get(api.ForwardedHeader), api.PeersHeader, hdr.Get(api.PeersHeader),
				api.PeerSelfHeader, hdr.Get(api.PeerSelfHeader), members, "http://"+host)
		}
	}
}
