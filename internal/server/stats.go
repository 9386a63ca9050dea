package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"svwsim/internal/api"
)

// Health and stats. Both answer for the fabric as this server sees it,
// selected by what the server observes rather than by an option: any
// server with members reports their routing rows (the cluster section of
// /v1/stats, the member counts of /v1/healthz), and a server that owns no
// keys — members, but no self among them: the coordinator — reports its
// members' own /v1/stats summed, so tooling reads one daemon and a
// fabric alike.

// statsTimeout bounds one member's /v1/stats fetch.
const statsTimeout = 2 * time.Second

// clusterStats is the cluster section of /v1/stats: the routing counters
// and one row per member, in membership order. Runs and Sweeps are this
// server's /v1/run and /v1/sweep requests, whatever their status.
func (s *Server) clusterStats() api.ClusterStats {
	rs, rows := s.Routing()
	st := api.ClusterStats{
		BackendsTotal: len(rows),
		Runs:          s.metrics.http.Requests("/v1/run"),
		Sweeps:        s.metrics.http.Requests("/v1/sweep"),
		Jobs:          rs.Answered,
		JobErrors:     rs.Failed,
		Retries:       rs.Moved,
		Backends:      rows,
	}
	for _, b := range rows {
		if b.Healthy {
			st.BackendsHealthy++
		}
	}
	return st
}

// handleHealthz answers "ok", "draining" (503) once shutdown has begun, or
// "degraded" (503) while every member is marked down. A member never
// marks itself down, so only a coordinator can be degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", UptimeS: time.Since(s.start).Seconds()}
	code := http.StatusOK
	if st := s.clusterStats(); st.BackendsTotal > 0 {
		resp.BackendsHealthy, resp.BackendsTotal = &st.BackendsHealthy, &st.BackendsTotal
		if st.BackendsHealthy == 0 {
			resp.Status, code = "degraded", http.StatusServiceUnavailable
		}
	}
	if s.draining.Load() {
		resp.Status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{UptimeS: time.Since(s.start).Seconds()}
	if self, urls := s.peers.view(); len(urls) > 0 && !slices.Contains(urls, self) {
		s.sumMembers(r.Context(), urls, &resp)
	} else {
		resp.Cache = api.StoreCacheStats(s.store.Stats())
		resp.Engine = s.engineStats()
		resp.Admission = s.gate.stats()
	}
	if cs := s.clusterStats(); cs.BackendsTotal > 0 {
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

// sumMembers fetches each member's /v1/stats concurrently and adds its
// sections into resp; an unreachable member contributes nothing. The
// section types aggregate themselves (internal/api's Add methods), so a
// field added to the wire contract is summed here by construction.
func (s *Server) sumMembers(ctx context.Context, urls []string, resp *StatsResponse) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, ok := fetchStats(ctx, u)
			if !ok {
				return
			}
			mu.Lock()
			resp.Cache.Add(st.Cache)
			resp.Engine.Add(st.Engine)
			resp.Admission.Add(st.Admission)
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// fetchStats reads one member's /v1/stats.
func fetchStats(ctx context.Context, u string) (api.StatsResponse, bool) {
	var st api.StatsResponse
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/stats", nil)
	if err != nil {
		return st, false
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, false
	}
	// Drain before Close: a decode stops at the JSON object and leaves the
	// trailing newline unread, and an undrained Close discards the
	// keep-alive connection, redialing each member on every scrape.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(res.Body, 64<<10))
		res.Body.Close()
	}()
	return st, res.StatusCode == http.StatusOK && json.NewDecoder(res.Body).Decode(&st) == nil
}
