package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/trace"
	"svwsim/internal/workload"
)

// decodeBody parses the request body into v under the coordinator's size
// limit, writing the error response itself — the same contract and
// messages as svwd's decoder, so clients see one behavior.
func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return api.DecodeBody(w, r, c.maxBody, v)
}

// writeOutcomeError maps a failed dispatch onto the client response:
// nothing when the client itself is gone, 504 when the request's declared
// deadline budget expired before the fabric could answer, and the
// dispatch mapping (429 on pool saturation, 502 otherwise) for the rest.
func writeOutcomeError(w http.ResponseWriter, r *http.Request, out outcome) {
	if r.Context().Err() != nil {
		return // client disconnected: no one to answer
	}
	if errors.Is(out.err, context.DeadlineExceeded) {
		api.WriteError(w, http.StatusGatewayTimeout,
			"dispatch: deadline exceeded (%s budget)", api.DeadlineHeader)
		return
	}
	writeDispatchError(w, out)
}

// writeDispatchError maps a failed dispatch onto the client response:
// pool-wide saturation propagates as 429 (with Retry-After, like svwd's
// own admission gate), everything else as 502.
func writeDispatchError(w http.ResponseWriter, out outcome) {
	if out.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusTooManyRequests,
			"cluster saturated: every backend refused the job, retry later")
		return
	}
	api.WriteError(w, http.StatusBadGateway, "no backend could serve the request: %v", out.err)
}

// --- registry / health / stats ------------------------------------------

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	pool := c.members.snapshot()
	healthy := healthyIn(pool)
	total := len(pool)
	status, code := "ok", http.StatusOK
	switch {
	case c.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case healthy == 0:
		status, code = "degraded", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, api.HealthResponse{
		Status:          status,
		UptimeS:         time.Since(c.start).Seconds(),
		BackendsHealthy: &healthy,
		BackendsTotal:   &total,
	})
}

// The registry endpoints are served locally: coordinator and backends
// compile against the same registries, so the bodies are identical to a
// backend's and cost no fan-out.

func (c *Coordinator) handleConfigs(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.ConfigsResponse{Configs: sim.ConfigNames()})
}

func (c *Coordinator) handleBenches(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.BenchesResponse{Benches: workload.Names()})
}

// handleStats aggregates the pool: each backend's /v1/stats is fetched
// concurrently and summed into the single-node shape (so svwload works
// unchanged against a coordinator), plus the cluster section with the
// coordinator's own counters and the per-backend breakdown.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := api.StatsResponse{UptimeS: time.Since(c.start).Seconds()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range c.members.snapshot() {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), DefaultProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/stats", nil)
			if err != nil {
				return
			}
			res, err := c.client.Do(req)
			if err != nil {
				return // unreachable backends contribute nothing to the sums
			}
			// Drain before Close on every exit — a decode stops at the JSON
			// object and leaves the trailing newline unread, and an
			// undrained Close discards the keep-alive connection, redialing
			// each backend on every stats scrape.
			defer drainClose(res.Body)
			if res.StatusCode != http.StatusOK {
				return
			}
			var st api.StatsResponse
			if json.NewDecoder(res.Body).Decode(&st) != nil {
				return
			}
			// The section types aggregate themselves (internal/api's Add
			// methods), so a field added to the wire contract is summed
			// here by construction, not by remembering to edit this loop.
			mu.Lock()
			resp.Cache.Add(st.Cache)
			resp.Engine.Add(st.Engine)
			resp.Admission.Add(st.Admission)
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	cs := c.clusterStats()
	resp.Cluster = &cs
	api.WriteJSON(w, http.StatusOK, resp)
}

// --- /v1/run and /v1/sweep ---------------------------------------------

// handleRun serves a run as a one-cell sweep: planned by the same
// api.SweepRequest.Plan and sent down the same batch path as a sweep's
// cells, so its cell walks the key's rendezvous order with the store
// fallback around it. The serving tier — a backend's store, the
// coordinator's own, or "miss" — is propagated in X-Svwd-Cache.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel, ok := api.RequestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	sweep := req.Sweep()
	plan, ok := c.plan(w, &sweep)
	if !ok {
		return
	}
	c.addRun()
	outcomes, landed := c.send(ctx, plan)
	<-landed
	out := outcomes[0]
	if out.err != nil {
		writeOutcomeError(w, r, out)
		return
	}
	origin := out.origin
	if origin == "" {
		origin = api.CacheMiss
	}
	w.Header().Set(api.CacheHeader, origin)
	api.WriteBody(w, http.StatusOK, out.body)
}

// normalizeConfigName lowercases and trims a client-supplied config name
// so the forwarded request resolves in the backend's registry exactly as
// it resolved here (sim.ConfigByName is case/whitespace-insensitive).
func normalizeConfigName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// sweepPlan is a planned request: its engine jobs in job order, with each
// job's cell as forwarded and its memo key, the routing key. The key
// hashes the built config and the resolved sampling spec, so aliases and
// case differences route with their canonical spelling, and sampled and
// exact variants of one job shard independently.
type sweepPlan struct {
	jobs  []engine.Job
	cells []api.SweepCell // normalized registry name and bench
	keys  []string
}

// plan validates req through api.SweepRequest.Plan — against the
// coordinator's default sampling spec, which is thereby stamped onto every
// forwarded body when enabled — writing the 400 itself on failure. A cell
// forwarded exact carries no spec, so a backend with a default of its own
// samples it; settle sees that in api.SampleHeader.
func (c *Coordinator) plan(w http.ResponseWriter, req *api.SweepRequest) (*sweepPlan, bool) {
	jobs, err := req.Plan(c.defaultSample, c.maxSweepJobs)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	p := &sweepPlan{jobs: jobs, cells: make([]api.SweepCell, len(jobs)), keys: make([]string, len(jobs))}
	for i, cell := range req.Flatten() {
		j := jobs[i]
		p.cells[i] = api.SweepCell{Config: normalizeConfigName(cell.Config), Bench: cell.Bench}
		p.keys[i] = engine.SampledFingerprint(j.Config, j.Bench, j.Insts, j.Sample)
	}
	return p, true
}

// call is the cells-form /v1/sweep forwarding the jobs at idx, keyed by
// the first job's memo key (a batch's jobs share one owner). Marshalling
// these strings and integers cannot fail.
func (p *sweepPlan) call(idx []int) call {
	req := api.SweepRequest{Cells: make([]api.SweepCell, len(idx)), Insts: p.jobs[0].Insts}
	for k, i := range idx {
		req.Cells[k] = p.cells[i]
	}
	req.SetSample(p.jobs[0].Sample)
	body, _ := json.Marshal(req)
	return call{key: p.keys[idx[0]], method: http.MethodPost, path: "/v1/sweep", body: body, cells: len(idx)}
}

// sample is job i's sampling spec as api.SampleHeader spells it.
func (p *sweepPlan) sample(i int) string { return api.SampleName(p.jobs[i].Sample) }

// batch is the jobs of one request owned by one backend, in job order.
type batch struct {
	owner *backend
	idx   []int
}

// groupByOwner splits jobs by their key's rendezvous owner in pool.
func groupByOwner(pool []*backend, keys []string) []batch {
	owned := make([][]int, len(pool))
	for i, key := range keys {
		o := rank(pool, key)[0]
		owned[o] = append(owned[o], i)
	}
	var batches []batch
	for o, idx := range owned {
		if len(idx) > 0 {
			batches = append(batches, batch{owner: pool[o], idx: idx})
		}
	}
	return batches
}

// send resolves a plan's jobs into outcomes, one batch per rendezvous
// owner over one membership snapshot, concurrently. Each batch's job
// indices arrive on the returned channel once its outcomes are final.
func (c *Coordinator) send(ctx context.Context, plan *sweepPlan) ([]outcome, <-chan []int) {
	pool := c.members.snapshot()
	batches := groupByOwner(pool, plan.keys)
	outcomes := make([]outcome, len(plan.jobs))
	landed := make(chan []int, len(batches))
	for _, bt := range batches {
		go func(bt batch) {
			c.sweepBatch(ctx, pool, plan, bt, outcomes)
			landed <- bt.idx
		}(bt)
	}
	return outcomes, landed
}

// handleSweep sends each rendezvous owner one request: the sweep's cells
// are grouped by owner over one membership snapshot, and each group goes
// out as a cells-form /v1/sweep through dispatch — so the per-backend
// concurrency bound, the trace spans and hedging apply per batch. The
// replies merge back in job order, buffered or as SSE.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel, ok := api.RequestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	plan, ok := c.plan(w, &req)
	if !ok {
		return
	}
	c.addSweep()
	outcomes, landed := c.send(ctx, plan)
	tr := trace.FromContext(ctx)
	if api.WantsSSE(r) {
		c.streamSweep(w, tr, plan.jobs, outcomes, landed)
		return
	}
	c.bufferSweep(w, r, tr, plan.jobs, outcomes, landed)
}

// sweepBatch resolves one owner's jobs into outcomes. A batch of several
// jobs goes to its owner as one request, plus at most one hedge; a
// one-job batch walks its key's rendezvous order instead. When a
// multi-job batch fails — transport error, 5xx, 429, timeout, or a reply
// that does not split into its cells — or its owner is marked unhealthy
// and gets no batch, each job walks on its own as a one-job batch,
// concurrently, a re-walk after a sent batch counting one retry. Either
// way each job settles as one client job.
func (c *Coordinator) sweepBatch(ctx context.Context, pool []*backend, plan *sweepPlan, bt batch, outcomes []outcome) {
	var out outcome
	sent := len(bt.idx) > 1 && bt.owner.isHealthy()
	if sent {
		out = c.dispatch(ctx, pool, plan.call(bt.idx))
	}
	var wg sync.WaitGroup
	for k, i := range bt.idx {
		if out.cells != nil {
			outcomes[i] = c.settle(ctx, plan.keys[i], plan.sample(i),
				outcome{b: out.b, status: http.StatusOK, body: out.cells[k], origin: out.tiers[k], sample: out.sample})
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sent && ctx.Err() == nil {
				c.addRetry()
			}
			// A one-cell reply is its own cell: body and tier as received.
			outcomes[i] = c.settle(ctx, plan.keys[i], plan.sample(i), c.dispatch(ctx, pool, plan.call([]int{i})))
		}(i)
	}
	wg.Wait()
}

// merge receives the landed batches and hands each job index to emit in
// job order, as soon as it and every job before it have landed.
func merge(landed <-chan []int, n int, emit func(i int)) {
	have := make([]bool, n)
	next := 0
	for next < n {
		for _, i := range <-landed {
			have[i] = true
		}
		for ; next < n && have[next]; next++ {
			emit(next)
		}
	}
}

// bufferSweep waits for every batch and writes the whole sweep as a
// sequence of indented result objects in job-index order — byte-identical
// to the equivalent multi-job `svwsim -json` invocation, however many
// backends computed it — with svwd's per-cell tier list in X-Svwd-Cache.
func (c *Coordinator) bufferSweep(w http.ResponseWriter, r *http.Request, tr *trace.Trace, jobs []engine.Job, outcomes []outcome, landed <-chan []int) {
	// The merge span covers waiting for the batches plus reassembly; its
	// duration is the sweep's critical path after dispatch began.
	sp := tr.Start("merge")
	defer sp.End()
	sp.SetAttr("jobs", strconv.Itoa(len(jobs)))
	merge(landed, len(jobs), func(int) {})
	var body []byte
	tiers := make([]string, len(jobs))
	for i := range jobs {
		if err := outcomes[i].err; err != nil {
			if r.Context().Err() != nil {
				return
			}
			if errors.Is(err, context.DeadlineExceeded) {
				api.WriteError(w, http.StatusGatewayTimeout,
					"sweep: deadline exceeded (%s budget)", api.DeadlineHeader)
				return
			}
			if outcomes[i].status == http.StatusTooManyRequests {
				// Pool-wide saturation keeps svwd's contract: 429 with
				// Retry-After, not a 500 — the fabric must be
				// indistinguishable from a single saturated daemon.
				writeDispatchError(w, outcomes[i])
				return
			}
			// Deterministic error reporting: the lowest-index failure
			// names the sweep's error, like the engine's own contract.
			api.WriteError(w, http.StatusInternalServerError,
				"sweep failed: job %d (%s on %s): %v", i, jobs[i].Config.Name, jobs[i].Bench, err)
			return
		}
		body = append(body, outcomes[i].body...)
		if tiers[i] = outcomes[i].origin; tiers[i] == "" {
			tiers[i] = api.CacheMiss
		}
	}
	w.Header().Set(api.CacheHeader, strings.Join(tiers, ","))
	api.WriteBody(w, http.StatusOK, body)
}

// streamSweep emits one SSE "result" event per cell in job-index order as
// batches land, then a "done" summary. Events carry the serving backend's
// URL and whether its store answered, so a watching client sees the
// fabric's cache affinity live.
func (c *Coordinator) streamSweep(w http.ResponseWriter, tr *trace.Trace, jobs []engine.Job, outcomes []outcome, landed <-chan []int) {
	stream, err := api.NewSSE(w)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sp := tr.Start("merge")
	summary := api.SweepDone{Jobs: len(jobs)}
	merge(landed, len(jobs), func(i int) {
		out := outcomes[i]
		ev := api.SweepEvent{
			Index:  i,
			Config: jobs[i].Config.Name,
			Bench:  jobs[i].Bench,
			Cached: out.cached(),
		}
		if ev.Cached {
			ev.Origin = out.origin
		}
		if out.b != nil {
			ev.Backend = out.b.url
		}
		if out.err != nil {
			ev.Error = out.err.Error()
		} else {
			ev.Result = json.RawMessage(out.body)
		}
		summary.Add(ev)
		stream.Event("result", i, ev)
	})
	if sp.Active() {
		sp.SetAttr("jobs", strconv.Itoa(len(jobs)))
		sp.SetAttr("cache_hits", strconv.Itoa(summary.CacheHits))
		sp.SetAttr("errors", strconv.Itoa(summary.Errors))
	}
	sp.End()
	stream.Event("done", len(jobs), summary)
}

// --- /v1/studies/{study} -------------------------------------------------

// handleStudy proxies a study request to one backend, routed by the study
// path and raw query so repeated identical requests land on the same
// backend. That backend resolves the study's cells through its store like
// any other cells, reading the ones it does not own from their owners.
// Validation and computation stay in the backend; the response (including
// 4xx validation errors) is forwarded verbatim.
func (c *Coordinator) handleStudy(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, ok := api.RequestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	study := r.PathValue("study")
	path := "/v1/studies/" + study
	key := "study|" + study
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
		key += "|" + r.URL.RawQuery
	}
	out := c.dispatch(ctx, c.members.snapshot(), call{key: key, method: http.MethodGet, path: path})
	if out.err != nil {
		writeOutcomeError(w, r, out)
		return
	}
	api.WriteBody(w, out.status, out.body)
}
