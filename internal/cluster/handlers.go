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
	"svwsim/internal/pipeline"
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

// --- /v1/run -------------------------------------------------------------

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
	cfg, ok := sim.ConfigByName(req.Config)
	if !ok {
		api.WriteError(w, http.StatusBadRequest, "unknown config %q", req.Config)
		return
	}
	if _, ok := workload.Get(req.Bench); !ok {
		api.WriteError(w, http.StatusBadRequest, "unknown benchmark %q", req.Bench)
		return
	}
	spec, ok := c.resolveSample(w, req.Sample())
	if !ok {
		return
	}
	c.addRun()

	// Forward the normalized registry name (the display name in cfg.Name
	// is not a registry key). The routing key is the memo key of the
	// built config, so aliases and case differences hash to the same
	// backend as their canonical spelling regardless of spelling. The
	// resolved sampling spec is forwarded explicitly and keys the routing,
	// so sampled and exact variants of one job shard independently.
	key := engine.SampledFingerprint(cfg, req.Bench, req.Insts, spec)
	fwd := api.RunRequest{
		Config: normalizeConfigName(req.Config), Bench: req.Bench, Insts: req.Insts}
	fwd.SetSample(spec)
	body, err := json.Marshal(fwd)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "encoding job: %v", err)
		return
	}
	out := c.forwardJob(ctx, key, body)
	c.addJob(out.err != nil)
	if out.err != nil {
		writeOutcomeError(w, r, out)
		return
	}
	if out.status == http.StatusOK {
		// Propagate the serving tier verbatim — memory, disk or miss —
		// whether a backend's store answered or the coordinator's own.
		origin := out.origin
		if origin == "" {
			origin = api.CacheMiss
		}
		w.Header().Set(api.CacheHeader, origin)
	}
	api.WriteBody(w, out.status, out.body)
}

// --- /v1/sweep -----------------------------------------------------------

// normalizeConfigName lowercases and trims a client-supplied config name
// so the forwarded request resolves in the backend's registry exactly as
// it resolved here (sim.ConfigByName is case/whitespace-insensitive).
func normalizeConfigName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// resolveSample picks a request's effective sampling spec — its own when
// enabled, the coordinator's default otherwise — and validates it,
// writing the 400 itself on an incoherent spec. The result is stamped
// onto every forwarded body, so backends never apply their own defaults
// to fabric-routed work.
func (c *Coordinator) resolveSample(w http.ResponseWriter, spec pipeline.SampleSpec) (pipeline.SampleSpec, bool) {
	if !spec.Enabled() {
		spec = c.defaultSample
	}
	if err := spec.Validate(); err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return pipeline.SampleSpec{}, false
	}
	return spec, true
}

// sweepPlan is a validated sweep: its cells in job order, and the insts
// and resolved sampling spec they all share.
type sweepPlan struct {
	insts uint64
	spec  pipeline.SampleSpec
	jobs  []sweepJob
}

// sweepJob is one cell of the plan.
type sweepJob struct {
	config string        // the config's display name (what SSE events carry)
	cell   api.SweepCell // registry name and bench, as forwarded
	key    string        // engine memo key: the routing key
}

// planSweep validates the request and flattens it into job order — a
// matrix config-major (the `svwsim -config a,b -bench x,y` order), cells
// as listed — identically to svwd. It writes the error response itself
// on failure.
func (c *Coordinator) planSweep(w http.ResponseWriter, req *api.SweepRequest) (*sweepPlan, bool) {
	if err := req.CheckForm(); err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if n := req.NumCells(); n > c.maxSweepJobs {
		api.WriteError(w, http.StatusBadRequest,
			"sweep matrix has %d jobs, limit is %d", n, c.maxSweepJobs)
		return nil, false
	}
	spec, ok := c.resolveSample(w, req.Sample())
	if !ok {
		return nil, false
	}
	p := &sweepPlan{insts: req.Insts, spec: spec}
	for _, cell := range req.Flatten() {
		cfg, ok := sim.ConfigByName(cell.Config)
		if !ok {
			api.WriteError(w, http.StatusBadRequest, "unknown config %q", cell.Config)
			return nil, false
		}
		if _, ok := workload.Get(cell.Bench); !ok {
			api.WriteError(w, http.StatusBadRequest, "unknown benchmark %q", cell.Bench)
			return nil, false
		}
		p.jobs = append(p.jobs, sweepJob{
			config: cfg.Name,
			cell:   api.SweepCell{Config: normalizeConfigName(cell.Config), Bench: cell.Bench},
			key:    engine.SampledFingerprint(cfg, cell.Bench, req.Insts, spec),
		})
	}
	return p, true
}

// runBody is the /v1/run request for job i alone. (Marshalling these
// strings and integers cannot fail.)
func (p *sweepPlan) runBody(i int) []byte {
	run := api.RunRequest{Config: p.jobs[i].cell.Config, Bench: p.jobs[i].cell.Bench, Insts: p.insts}
	run.SetSample(p.spec)
	b, _ := json.Marshal(run)
	return b
}

// batchBody is the cells-form /v1/sweep request for the jobs at idx.
func (p *sweepPlan) batchBody(idx []int) []byte {
	req := api.SweepRequest{Cells: make([]api.SweepCell, len(idx)), Insts: p.insts}
	for k, i := range idx {
		req.Cells[k] = p.jobs[i].cell
	}
	req.SetSample(p.spec)
	b, _ := json.Marshal(req)
	return b
}

// batch is the jobs of one sweep owned by one backend, in job order.
type batch struct {
	owner *backend
	idx   []int
}

// groupByOwner splits the plan's jobs by their key's rendezvous owner in
// pool.
func groupByOwner(pool []*backend, jobs []sweepJob) []batch {
	owned := make([][]int, len(pool))
	for i := range jobs {
		o := rank(pool, jobs[i].key)[0]
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
	plan, ok := c.planSweep(w, &req)
	if !ok {
		return
	}
	c.addSweep()

	pool := c.members.snapshot()
	batches := groupByOwner(pool, plan.jobs)
	outcomes := make([]outcome, len(plan.jobs))
	landed := make(chan []int, len(batches))
	for _, bt := range batches {
		go func(bt batch) {
			c.sweepBatch(ctx, pool, plan, bt, outcomes)
			landed <- bt.idx
		}(bt)
	}

	tr := trace.FromContext(ctx)
	if api.WantsSSE(r) {
		c.streamSweep(w, tr, plan.jobs, outcomes, landed)
		return
	}
	c.bufferSweep(w, r, tr, plan.jobs, outcomes, landed)
}

// sweepBatch resolves one owner's jobs into outcomes, accounting each as
// one client job. The batch goes to its owner as one request; if that
// fails — transport error, 5xx, 429, timeout, or a reply that does not
// split into its cells — each job re-walks on its own through forwardJob,
// concurrently, counted as one retry apiece. An owner marked unhealthy
// gets no batch: its jobs walk on their own from the start, as runs would.
func (c *Coordinator) sweepBatch(ctx context.Context, pool []*backend, plan *sweepPlan, bt batch, outcomes []outcome) {
	var out outcome
	sent := bt.owner.isHealthy()
	if sent {
		out = c.dispatch(ctx, pool, call{key: plan.jobs[bt.idx[0]].key, method: http.MethodPost,
			path: "/v1/sweep", body: plan.batchBody(bt.idx), cells: len(bt.idx)})
	}
	var wg sync.WaitGroup
	for k, i := range bt.idx {
		if out.cells != nil {
			outcomes[i] = outcome{b: out.b, status: http.StatusOK, body: out.cells[k], origin: out.tiers[k]}
			c.writeThrough(plan.jobs[i].key, outcomes[i])
			c.addJob(false)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sent && ctx.Err() == nil {
				c.addRetry()
			}
			o := c.forwardJob(ctx, plan.jobs[i].key, plan.runBody(i))
			if o.err == nil && o.status != http.StatusOK {
				// A non-200 terminal response is a failed cell from the
				// sweep's point of view.
				o.err = errors.New(string(o.body))
			}
			outcomes[i] = o
			c.addJob(o.err != nil)
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
func (c *Coordinator) bufferSweep(w http.ResponseWriter, r *http.Request, tr *trace.Trace, jobs []sweepJob, outcomes []outcome, landed <-chan []int) {
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
				"sweep failed: job %d (%s on %s): %v", i, jobs[i].config, jobs[i].cell.Bench, err)
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
func (c *Coordinator) streamSweep(w http.ResponseWriter, tr *trace.Trace, jobs []sweepJob, outcomes []outcome, landed <-chan []int) {
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
			Config: jobs[i].config,
			Bench:  jobs[i].cell.Bench,
			Cached: out.cached(),
		}
		if ev.Cached {
			ev.Origin = out.origin
		}
		if out.b != nil {
			ev.Backend = out.b.url
		}
		if ev.Cached {
			summary.CacheHits++
			switch out.origin {
			case api.CacheDisk:
				summary.DiskHits++
			case api.CachePeer:
				summary.PeerHits++
			}
		} else {
			summary.CacheMisses++
		}
		if out.err != nil {
			ev.Error = out.err.Error()
			summary.Errors++
		} else {
			ev.Result = json.RawMessage(out.body)
		}
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
// path and raw query so repeated identical requests hit the same
// backend's study cache. Validation and computation stay in the backend;
// the response (including 4xx validation errors) is forwarded verbatim.
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
