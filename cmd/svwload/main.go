// Command svwload drives a running simulation service — a single svwd
// daemon or svwctl fronting several, interchangeably: the
// repository's service-level benchmark. It fires N concurrent clients at
// /v1/sweep with a repeated config × bench matrix and reports throughput,
// latency percentiles, admission rejections, and the service's cache hit
// rate over the run (from /v1/stats deltas) — the workload the ISCA
// evaluation matrix generates when it is served remotely instead of run
// locally. Pointed at svwctl, the /v1/stats cluster section is also
// reported: backend health, jobs and retries over the run.
//
// Usage:
//
//	svwload -url http://127.0.0.1:7411 -c 8 -n 20 \
//	        -configs ssq,ssq+svw -benches gcc,twolf -insts 30000
//
// With -smoke it instead performs one healthz probe, one /v1/run (first
// config × first bench) and one /v1/sweep (the full matrix), printing the
// two response bodies verbatim to stdout; ci.sh byte-compares that output
// against the equivalent `svwsim -json` invocations. With -stats it
// prints the raw /v1/stats body, which the warm-restart smoke stage greps
// to prove a restarted daemon served everything from its disk tier.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/trace"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:7411", "svwd base URL")
	clients := flag.Int("c", 8, "concurrent clients")
	iters := flag.Int("n", 20, "sweep requests per client")
	configs := flag.String("configs", "ssq,ssq+svw", "sweep configs, comma-separated")
	benches := flag.String("benches", "gcc,twolf", "sweep benches, comma-separated")
	insts := flag.Uint64("insts", 30_000, "committed instructions per job")
	smoke := flag.Bool("smoke", false, "one /v1/run + one /v1/sweep, bodies to stdout")
	stats := flag.Bool("stats", false, "print the raw /v1/stats body and exit")
	metrics := flag.Bool("metrics", false, "print the raw /metrics exposition and exit")
	deadline := flag.Duration("deadline", 0,
		"per-request deadline sent as the X-Svw-Deadline-Ms header (0 = none); "+
			"504s are counted in the report, not fatal")
	traceTop := flag.Int("trace-top", 0,
		"after the run, fetch GET /debug/traces and print the N slowest "+
			"traces (0 = off); alone (no -smoke/-stats/-metrics/load), just "+
			"fetch and print")
	flag.Parse()

	l := &loader{
		base:     strings.TrimRight(*url, "/"),
		client:   &http.Client{Timeout: 5 * time.Minute},
		configs:  strings.Split(*configs, ","),
		benches:  strings.Split(*benches, ","),
		insts:    *insts,
		deadline: *deadline,
	}
	// -trace-top alone reports on whatever the service's ring already
	// holds; combined with a driving mode (or any load-shaping flag) it
	// reports after that run.
	loadish := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "c", "n", "configs", "benches", "insts", "deadline":
			loadish = true
		}
	})

	var err error
	switch {
	case *metrics:
		err = l.printMetrics()
	case *stats:
		err = l.printStats()
	case *smoke:
		err = l.runSmoke()
	case *traceTop > 0 && !loadish:
	default:
		err = l.runLoad(*clients, *iters)
	}
	if err == nil && *traceTop > 0 {
		err = l.printTraces(*traceTop)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwload: %v\n", err)
		os.Exit(1)
	}
}

type loader struct {
	base     string
	client   *http.Client
	configs  []string
	benches  []string
	insts    uint64
	deadline time.Duration
}

// post sends a JSON body and returns the response body, reporting non-2xx
// statuses as errors (except 429 and 504, which the caller handles). A
// configured -deadline rides along as the X-Svw-Deadline-Ms header, and
// every request carries a fresh client-chosen trace ID so a slow request
// in the report can be looked up on /debug/traces by ID.
func (l *loader) post(path string, req any) (status int, body []byte, err error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, l.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.TraceHeader, trace.NewID())
	if l.deadline > 0 {
		ms := l.deadline.Milliseconds()
		if ms < 1 {
			ms = 1 // the header's floor: sub-millisecond budgets round up
		}
		hreq.Header.Set(api.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := l.client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

func (l *loader) get(path string, v any) error {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type sweepReq struct {
	Configs []string `json:"configs"`
	Benches []string `json:"benches"`
	Insts   uint64   `json:"insts"`
}

type runReq struct {
	Config string `json:"config"`
	Bench  string `json:"bench"`
	Insts  uint64 `json:"insts"`
}

// --- smoke ---------------------------------------------------------------

// runSmoke performs the CI handshake: healthz, one run, one sweep; the two
// POST bodies go to stdout verbatim for byte comparison with `svwsim -json`.
func (l *loader) runSmoke() error {
	var health struct {
		Status string `json:"status"`
	}
	if err := l.get("/v1/healthz", &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if health.Status != "ok" {
		return fmt.Errorf("healthz: status %q", health.Status)
	}
	status, body, err := l.post("/v1/run",
		runReq{Config: l.configs[0], Bench: l.benches[0], Insts: l.insts})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("run: HTTP %d: %s", status, body)
	}
	os.Stdout.Write(body)

	status, body, err = l.post("/v1/sweep",
		sweepReq{Configs: l.configs, Benches: l.benches, Insts: l.insts})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("sweep: HTTP %d: %s", status, body)
	}
	os.Stdout.Write(body)
	return nil
}

// --- stats ---------------------------------------------------------------

// printStats dumps the service's /v1/stats body verbatim (scripts grep
// it; humans read it).
func (l *loader) printStats() error {
	resp, err := l.client.Get(l.base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: HTTP %d: %s", resp.StatusCode, body)
	}
	os.Stdout.Write(body)
	return nil
}

// printMetrics dumps the service's Prometheus exposition verbatim (what a
// scraper would ingest; ci.sh greps it for the expected series).
func (l *loader) printMetrics() error {
	resp, err := l.client.Get(l.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: HTTP %d: %s", resp.StatusCode, body)
	}
	os.Stdout.Write(body)
	return nil
}

// --- traces --------------------------------------------------------------

// printTraces fetches GET /debug/traces and prints the n slowest traces,
// one header line per trace (grep-friendly: "trace id=... dur=...")
// followed by its spans indented as a tree timeline.
func (l *loader) printTraces(n int) error {
	var resp api.TracesResponse
	if err := l.get("/debug/traces", &resp); err != nil {
		return fmt.Errorf("traces: %w", err)
	}
	traces := resp.Traces
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].DurUS > traces[j].DurUS })
	if len(traces) > n {
		traces = traces[:n]
	}
	fmt.Printf("svwload: %d slowest of %d buffered traces\n", len(traces), len(resp.Traces))
	for _, t := range traces {
		fmt.Printf("trace id=%s endpoint=%s dur=%s spans=%d\n",
			t.TraceID, t.Endpoint, time.Duration(t.DurUS)*time.Microsecond, len(t.Spans))
		printSpanTree(t.Spans, -1, 1)
	}
	return nil
}

// printSpanTree prints parent's children at the given indent depth,
// recursing in recorded order (spans carry parent indices, so the flat
// slice is re-nested here for display).
func printSpanTree(spans []api.SpanJSON, parent, depth int) {
	for i, sp := range spans {
		if sp.Parent != parent {
			continue
		}
		var attrs strings.Builder
		for _, k := range sortedAttrKeys(sp.Attrs) {
			fmt.Fprintf(&attrs, " %s=%s", k, sp.Attrs[k])
		}
		fmt.Printf("%s%s +%s %s%s\n", strings.Repeat("  ", depth), sp.Name,
			time.Duration(sp.StartUS)*time.Microsecond,
			time.Duration(sp.DurUS)*time.Microsecond, attrs.String())
		printSpanTree(spans, i, depth+1)
	}
}

func sortedAttrKeys(attrs map[string]string) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- load ----------------------------------------------------------------

// percentile returns the nearest-rank percentile of an ascending-sorted
// sample: the smallest value with at least p·n of the sample at or below
// it (rank ⌈p·n⌉, 1-based). Truncating toward zero instead — the old
// int(p·(n-1)) — systematically picked too low a rank: the p99 of 50
// samples read the 49th value, reporting the second-worst latency as the
// tail.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Stats snapshots decode into the shared wire types (internal/api): the
// same structs svwd and svwctl marshal, so the reporter reads exactly
// what the services wrote and cannot drift from them.

// runLoad fires clients × iters sweep requests and prints the service-level
// report.
func (l *loader) runLoad(clients, iters int) error {
	var before api.StatsResponse
	if err := l.get("/v1/stats", &before); err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	req := sweepReq{Configs: l.configs, Benches: l.benches, Insts: l.insts}
	jobsPerSweep := len(l.configs) * len(l.benches)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		rejected  int
		timedOut  int
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					t0 := time.Now()
					status, body, err := l.post("/v1/sweep", req)
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					if status == http.StatusTooManyRequests {
						mu.Lock()
						rejected++
						mu.Unlock()
						time.Sleep(5 * time.Millisecond)
						continue // retry; the iteration isn't counted yet
					}
					if status == http.StatusGatewayTimeout {
						// The request's own -deadline budget expired: an
						// expected outcome under load, counted, not fatal.
						mu.Lock()
						timedOut++
						mu.Unlock()
						break
					}
					if status != http.StatusOK {
						errOnce.Do(func() {
							firstErr = fmt.Errorf("sweep: HTTP %d: %s", status, body)
						})
						return
					}
					mu.Lock()
					latencies = append(latencies, time.Since(t0))
					mu.Unlock()
					break
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	var after api.StatsResponse
	if err := l.get("/v1/stats", &after); err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration { return percentile(latencies, p) }
	n := len(latencies)
	hits := after.Cache.Hits - before.Cache.Hits
	diskHits := after.Cache.DiskHits - before.Cache.DiskHits
	peerHits := after.Cache.PeerHits - before.Cache.PeerHits
	misses := after.Cache.Misses - before.Cache.Misses
	hitRate := 0.0
	if hits+diskHits+peerHits+misses > 0 {
		hitRate = float64(hits+diskHits+peerHits) / float64(hits+diskHits+peerHits+misses) * 100
	}

	fmt.Printf("svwload: %d clients x %d sweeps (%d jobs each), insts=%d\n",
		clients, iters, jobsPerSweep, l.insts)
	if l.deadline > 0 {
		fmt.Printf("  requests      %d ok, %d rejected (429), %d deadline exceeded (504) in %v\n",
			n, rejected, timedOut, elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("  requests      %d ok, %d rejected (429) in %v\n", n, rejected, elapsed.Round(time.Millisecond))
	}
	fmt.Printf("  throughput    %.1f sweeps/s, %.1f jobs/s\n",
		float64(n)/elapsed.Seconds(), float64(n*jobsPerSweep)/elapsed.Seconds())
	fmt.Printf("  latency       p50 %v  p90 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Printf("  server store  %d memory hits / %d disk hits / %d peer hits / %d misses (%.1f%% hit rate)\n",
		hits, diskHits, peerHits, misses, hitRate)
	fmt.Printf("  engine memo   +%d hits / +%d misses over the run\n",
		after.Engine.MemoHits-before.Engine.MemoHits,
		after.Engine.MemoMisses-before.Engine.MemoMisses)
	if cl := after.Cluster; cl != nil {
		jobs, retries := cl.Jobs, cl.Retries
		if b := before.Cluster; b != nil {
			jobs, retries = cl.Jobs-b.Jobs, cl.Retries-b.Retries
		}
		fmt.Printf("  cluster       %d/%d backends healthy, +%d jobs, +%d retries\n",
			cl.BackendsHealthy, cl.BackendsTotal, jobs, retries)
		var backendDisk uint64
		for _, b := range cl.Backends {
			backendDisk += b.DiskHits
		}
		if backendDisk > 0 {
			fmt.Printf("  backend disk  %d jobs served from backend disk tiers\n", backendDisk)
		}
	}
	return nil
}
