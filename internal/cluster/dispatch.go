package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/store"
	"svwsim/internal/trace"
)

// outcome is the result of dispatching one request into the pool.
type outcome struct {
	b      *backend // backend that produced the response (nil if none did)
	status int      // HTTP status of the final response (0 = no response)
	body   []byte
	// origin is the serving store tier from api.CacheHeader ("memory",
	// "disk", "peer", "miss"; a batch's comma-separated list; empty when
	// the response carried no header, e.g. a proxied study). A response
	// served by the coordinator's own store after every backend attempt
	// failed has a tier origin and b == nil.
	origin string
	// sample is the spec the backend resolved the request to, from
	// api.SampleHeader (empty when the response carried none).
	sample string
	hedged bool // produced by the hedge attempt, not the primary
	// err is set when no usable response was obtained (all candidates
	// failed, saturated, or the client went away).
	err error
	// cells and tiers are a batch's 200 reply split per cell: each
	// cell's result bytes and its serving tier from the CacheHeader list.
	// A one-cell reply's single cell is body itself, its tier origin.
	cells [][]byte
	tiers []string
}

// call is one request a dispatch forwards.
type call struct {
	key          string // rendezvous key: ranks the backends to try
	method, path string
	body         []byte
	// cells > 0 marks a cells-form /v1/sweep of that many cells, all owned
	// by the key's top-ranked backend; its 200 reply is split per cell (a
	// reply that does not split is a failed attempt). A one-cell batch
	// walks the key's rendezvous order like any call. A multi-cell batch
	// is addressed, not walked: each walk makes one attempt — the primary
	// on the owner, a hedge on the next-ranked backend — and when the
	// batch fails its cells walk on their own (sweepBatch).
	cells int
}

// cached reports whether the response was served from a store rather than
// computed — any tier (memory, disk, or a peer's store), backend or
// coordinator.
func (o *outcome) cached() bool {
	return o.origin == api.CacheMemory || o.origin == api.CacheDisk || o.origin == api.CachePeer
}

// peersHeader is the membership payload attached to every forwarded
// attempt: the dispatch snapshot's URLs, comma-joined. Backends running
// with -peer-learn adopt it as their store-owner election set, so the
// sharding map rides along with the work itself. Empty below two members
// — a one-backend "fabric" has no peers to read from.
func peersHeader(pool []*backend) string {
	if len(pool) < 2 {
		return ""
	}
	var sb strings.Builder
	for i, b := range pool {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(b.url)
	}
	return sb.String()
}

// dispatch forwards one request to pool, a membership snapshot:
// rendezvous-routed, retried across backends, optionally hedged. It is the
// single entry point the handlers use, so every path — a per-owner sweep
// batch, a one-cell batch (a run, or a re-walked cell), a study — gets
// identical failover behavior, and it performs the winning-response
// bookkeeping exactly once per call.
//
// A traced request gets one "dispatch" span per call, annotated
// synchronously (before dispatch returns) with the winning backend, which
// walk won a hedge race and which was abandoned; each backend attempt is
// a child "attempt" span.
func (c *Coordinator) dispatch(ctx context.Context, pool []*backend, req call) outcome {
	dsp := trace.FromContext(ctx).Start("dispatch")
	dsp.SetAttr("path", req.path)
	// ONE membership snapshot per dispatch, taken by the caller: ranking,
	// the retry walk, the hedge and the health check all see the same pool,
	// so a concurrent add/remove cannot skip or double-visit a backend
	// mid-job. In-flight work thus finishes against the set it ranked
	// under; a removed backend drains instead of vanishing.
	//
	// One attempts budget per job, shared between the primary walk and a
	// hedge, so MaxAttempts bounds the job's total backend traffic even
	// when both walks are live.
	var budget atomic.Int64
	maxAttempts := c.attemptsBudget(len(pool))
	peersHdr := peersHeader(pool)
	if c.hedgeAfter <= 0 || len(pool) < 2 {
		out := c.forward(ctx, dsp, pool, "primary", 0, &req, peersHdr, &budget, maxAttempts)
		c.noteOutcome(out)
		finishDispatch(dsp, out, false)
		return out
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap the losing attempt
	results := make(chan outcome, 2)
	go func() {
		results <- c.forward(hctx, dsp, pool, "primary", 0, &req, peersHdr, &budget, maxAttempts)
	}()

	timer := time.NewTimer(c.hedgeAfter)
	defer timer.Stop()
	outstanding, hedged := 1, false
	var firstFail *outcome
	for {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				c.noteOutcome(out)
				finishDispatch(dsp, out, hedged)
				return out
			}
			if outstanding > 0 {
				firstFail = &out // let the other attempt finish the job
				continue
			}
			if firstFail != nil {
				out = *firstFail // both failed: report the earlier failure
			}
			c.noteOutcome(out)
			finishDispatch(dsp, out, hedged)
			return out
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			c.addHedge()
			dsp.SetAttr("hedged", "true")
			outstanding++
			go func() {
				// Offset 1 starts the candidate walk at the key's
				// second-ranked backend, so the hedge never duplicates
				// work onto the straggling primary first.
				out := c.forward(hctx, dsp, pool, "hedge", 1, &req, peersHdr, &budget, maxAttempts)
				out.hedged = true
				results <- out
			}()
		}
	}
}

// finishDispatch closes a dispatch span with the outcome's synchronous
// annotations: the winning backend, and — when a hedge was launched —
// which walk won and which was abandoned. The abandoned walk's own
// "attempt" span observes its cancellation asynchronously and may land
// after the request completes; the "abandoned" attribute here is the
// deterministic marker written before dispatch returns.
func finishDispatch(dsp trace.Span, out outcome, hedged bool) {
	if !dsp.Active() {
		return
	}
	if out.b != nil {
		dsp.SetAttr("backend", out.b.url)
	}
	if hedged && out.err == nil {
		if out.hedged {
			dsp.SetAttr("winner", "hedge")
			dsp.SetAttr("abandoned", "primary")
		} else {
			dsp.SetAttr("winner", "primary")
			dsp.SetAttr("abandoned", "hedge")
		}
	}
	if out.err != nil {
		dsp.SetAttr("error", out.err.Error())
	}
	dsp.End()
}

// noteOutcome records a dispatch's final outcome on the winning backend
// and the hedge counters. Job-level accounting (Jobs/JobErrors) is the
// handlers' business: they know what is a client job and what is not.
func (c *Coordinator) noteOutcome(out outcome) {
	if out.err == nil && out.status == http.StatusOK && out.b != nil {
		if out.tiers == nil { // a proxied study
			out.b.noteWin(out.origin)
		}
		for _, tier := range out.tiers { // a batch wins once per cell
			out.b.noteWin(tier)
		}
		if out.hedged {
			c.addHedgeWin()
		}
	}
}

// settle finishes one job's outcome against the coordinator store and
// accounts it as one client job, exactly once:
//
//   - a non-200 terminal reply is a failed job;
//   - a job no backend could serve is answered from the coordinator's own
//     store when the result is already on its disk — a previous
//     write-through, or a CLI sweep that pre-warmed the directory — so a
//     fabric with every backend down still serves what it has computed;
//   - a freshly computed result is written through to the store, but only
//     when the backend's api.SampleHeader names spec, the sampling spec
//     key was derived from: a backend applies its own default to a cell
//     forwarded without one, and a sampled result must never land under
//     an exact key.
//
// Concurrent identical jobs are not coalesced here: rendezvous routing
// sends them all to the key's one owner, whose cell resolver runs the job
// once for every waiting request. Without Options.StoreDir only the
// first rule applies.
func (c *Coordinator) settle(ctx context.Context, key, spec string, out outcome) outcome {
	if out.err == nil && out.status != http.StatusOK {
		out.err = errors.New(string(out.body))
	}
	switch {
	case c.store == nil:
	case out.err != nil && ctx.Err() == nil:
		sp := trace.FromContext(ctx).Start("store_fallback")
		body, origin := c.store.Get(key)
		sp.SetAttr("tier", origin.String())
		sp.End()
		if origin != store.OriginMiss {
			c.store.AccountGet(origin)
			out = outcome{status: http.StatusOK, body: body, origin: origin.String()}
		}
	case out.err == nil && !out.cached() && out.sample == spec:
		c.store.Put(key, out.body)
	}
	c.addJob(out.err != nil)
	return out
}

// forward walks the key's rendezvous candidate order over pool — the
// dispatch's membership snapshot — starting at offset, attempting each
// backend until one yields a terminal response or the job's shared
// attempts budget runs out. Pass 0 skips backends currently marked
// unhealthy (unless none are); pass 1 fails open and tries everyone, so a
// pool whose marks are all stale can still recover. Attempts beyond each
// walk's first count as retries (a hedge's first attempt is accounted as
// the hedge, not a retry). A multi-cell batch's walk is its one attempt
// on the candidate at offset (see call). dsp is the dispatch span the walk's
// "attempt" spans parent under (inert when untraced); walk names the walk
// on those spans ("primary" or "hedge").
func (c *Coordinator) forward(ctx context.Context, dsp trace.Span, pool []*backend, walk string, offset int, req *call, peersHdr string, budget *atomic.Int64, maxAttempts int) outcome {
	order := rank(pool, req.key)
	n := len(order)
	if req.cells > 1 {
		b := pool[order[offset%n]]
		out, _ := c.attempt(ctx, attemptSpan(dsp, b, walk, 1), b, req, peersHdr)
		return out
	}
	walkAttempts := 0
	last := outcome{err: fmt.Errorf("no backend attempted")}
	for pass := 0; pass < 2; pass++ {
		anyHealthy := healthyIn(pool) > 0
		for i := 0; i < n; i++ {
			b := pool[order[(i+offset)%n]]
			if pass == 0 && anyHealthy && !b.isHealthy() {
				continue
			}
			if err := ctx.Err(); err != nil {
				return outcome{err: err}
			}
			if budget.Add(1) > int64(maxAttempts) {
				budget.Add(-1)
				return last
			}
			walkAttempts++
			if walkAttempts > 1 {
				c.addRetry()
			}
			out, retryable := c.attempt(ctx, attemptSpan(dsp, b, walk, walkAttempts), b, req, peersHdr)
			if !retryable {
				return out
			}
			last = out
		}
		if pass == 0 && budget.Load() < int64(maxAttempts) {
			// Preferred candidates exhausted: breathe briefly so transient
			// saturation can drain before the fail-open pass. A stoppable
			// Timer, not time.After — a saturated fabric runs this once per
			// dispatch, and time.After's timer lives on past a ctx-done exit
			// until it fires, piling up garbage exactly when dispatch volume
			// and cancellations are highest.
			timer := time.NewTimer(5 * time.Millisecond)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return outcome{err: ctx.Err()}
			}
		}
	}
	return last
}

// attemptSpan opens the "attempt" span of a walk's nth attempt on b
// (inert when dsp is).
func attemptSpan(dsp trace.Span, b *backend, walk string, nth int) trace.Span {
	sp := dsp.Child("attempt")
	if sp.Active() {
		sp.SetAttr("backend", b.url)
		sp.SetAttr("walk", walk)
		if nth > 1 {
			sp.SetAttr("retry", strconv.Itoa(nth-1))
		}
	}
	return sp
}

// attempt forwards the request to one backend under its concurrency
// bound. The second result reports whether the failure is retryable on
// another backend: transport errors, 5xx and a batch reply that does not
// split into its cells (which also mark the backend unhealthy) and 429
// saturation (which does not — a busy backend is not a sick one) are;
// success and other 4xx are terminal.
//
// sp is the walk's "attempt" span (inert when untraced): the backend
// request carries the trace ID header, so the backend's own trace shares
// this request's ID, and the span is closed with a status or outcome
// attribute on every exit. An attempt cancelled because the other hedge
// walk won — or the client went away — is marked outcome=abandoned; for
// a losing hedge that marking happens when its transport call observes
// the cancellation, possibly after the request has already completed.
func (c *Coordinator) attempt(ctx context.Context, sp trace.Span, b *backend, r *call, peersHdr string) (outcome, bool) {
	fail := func(o outcome, retryable bool, outcomeAttr string) (outcome, bool) {
		if sp.Active() {
			sp.SetAttr("outcome", outcomeAttr)
			if o.err != nil {
				sp.SetAttr("error", o.err.Error())
			}
		}
		sp.End()
		return o, retryable
	}
	select {
	case b.sem <- struct{}{}:
	case <-ctx.Done():
		return fail(outcome{err: ctx.Err()}, false, "abandoned")
	}
	defer func() { <-b.sem }()

	var body io.Reader
	if len(r.body) > 0 {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, b.url+r.path, body)
	if err != nil {
		return fail(outcome{err: err}, false, "error")
	}
	if len(r.body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if peersHdr != "" {
		// The membership payload: the pool snapshot this dispatch ranked
		// over, plus the URL this backend is being addressed by — which is
		// how a -peer-learn backend discovers both the sharding map and its
		// own identity inside it.
		req.Header.Set(api.PeersHeader, peersHdr)
		req.Header.Set(api.PeerSelfHeader, b.url)
	}
	if id := trace.FromContext(ctx).ID(); id != "" {
		// One ID names the request on every layer: the backend opens its
		// own trace under the same ID, correlated via /debug/traces.
		req.Header.Set(trace.Header, id)
	}

	b.noteStart()
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client (or a winning hedge) went away; say nothing about
			// the backend's health.
			b.noteEnd(false)
			return fail(outcome{err: ctx.Err()}, false, "abandoned")
		}
		b.setHealth(false, err)
		b.noteEnd(true)
		return fail(outcome{b: b, err: fmt.Errorf("%s: %w", b.url, err)}, true, "error")
	}
	// ReadAll consumes the body to EOF, so the deferred Close hands the
	// connection back to the keep-alive pool (unlike a bare Close on an
	// unread body, which discards it — see drainClose in health.go).
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			b.noteEnd(false)
			return fail(outcome{err: ctx.Err()}, false, "abandoned")
		}
		b.setHealth(false, err)
		b.noteEnd(true)
		return fail(outcome{b: b, err: fmt.Errorf("%s: reading response: %w", b.url, err)}, true, "error")
	}

	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	switch {
	case resp.StatusCode == http.StatusOK:
		out := outcome{b: b, status: resp.StatusCode, body: respBody,
			origin: resp.Header.Get(api.CacheHeader), sample: resp.Header.Get(api.SampleHeader)}
		if r.cells > 0 {
			if out.cells, out.tiers, err = splitBatch(out, r.cells); err != nil {
				b.setHealth(false, err)
				b.noteEnd(true)
				return fail(outcome{b: b, err: fmt.Errorf("%s: %w", b.url, err)}, true, "error")
			}
		}
		b.setHealth(true, nil)
		b.noteEnd(false)
		if out.origin != "" {
			sp.SetAttr("tier", out.origin)
		}
		sp.End()
		return out, false
	case resp.StatusCode == http.StatusTooManyRequests:
		b.noteEnd(false)
		return fail(outcome{b: b, status: resp.StatusCode,
			err: fmt.Errorf("%s: saturated (HTTP 429)", b.url)}, true, "saturated")
	case resp.StatusCode >= 500:
		b.setHealth(false, fmt.Errorf("HTTP %d", resp.StatusCode))
		b.noteEnd(true)
		return fail(outcome{b: b, status: resp.StatusCode,
			err: fmt.Errorf("%s: HTTP %d", b.url, resp.StatusCode)}, true, "error")
	default:
		// Other 4xx: the backend rejected the request itself — propagate
		// its body verbatim rather than guessing at another backend.
		b.noteEnd(false)
		sp.SetAttr("outcome", "rejected")
		sp.End()
		return outcome{b: b, status: resp.StatusCode, body: respBody}, false
	}
}

// splitBatch splits a batch's 200 reply into its n cells' result bytes
// and serving tiers.
func splitBatch(out outcome, n int) ([][]byte, []string, error) {
	cells, err := api.SplitResults(out.body, n)
	if err != nil {
		return nil, nil, err
	}
	tiers := strings.Split(out.origin, ",")
	if len(tiers) != n {
		return nil, nil, fmt.Errorf("%s lists %d tiers for %d cells", api.CacheHeader, len(tiers), n)
	}
	return cells, tiers, nil
}
