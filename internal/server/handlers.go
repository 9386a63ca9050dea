package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
	"svwsim/internal/trace"
	"svwsim/internal/workload"
)

// --- shared helpers ------------------------------------------------------

// The JSON and SSE encodings live in internal/api, shared with svwctl;
// the wrappers below keep handler call sites short.

func writeJSON(w http.ResponseWriter, status int, v any)    { api.WriteJSON(w, status, v) }
func writeBody(w http.ResponseWriter, status int, b []byte) { api.WriteBody(w, status, b) }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	api.WriteError(w, status, format, args...)
}

// decodeBody parses the request body into v under the server's size limit
// via the shared decoder (api.DecodeBody), which also rejects trailing
// content after the JSON object. It writes the error response itself and
// reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return api.DecodeBody(w, r, s.maxBody, v)
}

// marshalResult encodes an engine result exactly as `svwsim -json` does
// (api.MarshalResult). Cached bytes are stored in this form so cache hits
// and fresh runs are byte-identical.
func marshalResult(res engine.Result) ([]byte, error) {
	return api.MarshalResult(res)
}

// clientID names the requesting tenant for fair admission: the
// ClientHeader when present, the remote host otherwise.
func clientID(r *http.Request) string {
	if c := r.Header.Get(api.ClientHeader); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// errGateSaturated is resolve's admission refusal. It also resolves the
// refused request's flights, so requests coalesced on them are refused
// with it too.
var errGateSaturated = errors.New("admission gate saturated")

// writeResolveError maps a failed resolve onto the client response: 429
// when the gate — this server's, or every member's a cell walked — refused
// the work, nothing when the client itself is gone (no one left to write
// to), 504 when the request's own deadline budget (api.DeadlineHeader)
// expired, 502 when no member could serve a cell, 500 otherwise.
func writeResolveError(w http.ResponseWriter, r *http.Request, err error, what string) {
	switch {
	case errors.Is(err, errGateSaturated):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"admission gate saturated: too many concurrent jobs, retry later")
	case r.Context().Err() != nil:
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout,
			"%s: deadline exceeded (%s budget)", what, api.DeadlineHeader)
	case errors.Is(err, errUnreachable):
		writeError(w, http.StatusBadGateway, "%s: %v", what, err)
	default:
		writeError(w, http.StatusInternalServerError, "%s: %v", what, err)
	}
}

// resolveSample picks a study's effective sampling spec: its own when
// enabled, the server's configured default otherwise, validated either
// way — the rule api.SweepRequest.Plan applies to runs and sweeps. It
// writes the 400 itself on an incoherent spec. The resolution happens at
// the handler seam — never inside the engine — so the spec that keys the
// store is always the spec that ran.
func (s *Server) resolveSample(w http.ResponseWriter, spec pipeline.SampleSpec) (pipeline.SampleSpec, bool) {
	if !spec.Enabled() {
		spec = s.defaultSample
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return pipeline.SampleSpec{}, false
	}
	return spec, true
}

// checkCells enforces the MaxSweepJobs bound on a study's matrix, writing
// the 400 itself.
func (s *Server) checkCells(w http.ResponseWriter, n int) bool {
	if n > s.maxSweepJobs {
		writeError(w, http.StatusBadRequest,
			"study matrix has %d jobs, limit is %d", n, s.maxSweepJobs)
		return false
	}
	return true
}

// --- registry / health / stats ------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthResponse{
		Status:  status,
		UptimeS: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ConfigsResponse{Configs: sim.ConfigNames()})
}

func (s *Server) handleBenches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, BenchesResponse{Benches: workload.Names()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeS:   time.Since(s.start).Seconds(),
		Cache:     api.StoreCacheStats(s.store.Stats()),
		Engine:    s.engineStats(),
		Admission: s.gate.stats(),
	})
}

// --- the cell resolver ---------------------------------------------------

// cell is one job's passage through resolve. It points at its planned
// cell, which names its machine, bench, budget and key; only a cell this
// server computes builds an engine job from it.
type cell struct {
	index int
	*api.PlannedCell
	// body is the cell's result in the `svwsim -json` encoding, carrying
	// the cell's Name whoever computed it.
	body []byte
	// reply is the pooled owner reply a forwarded batch's bodies alias,
	// held on the batch's first cell until the response is written
	// (releaseReplies).
	reply *[]byte
	// origin is the store tier that served the cell; OriginMiss when this
	// request computed it or waited on another request's flight, and
	// OriginPeer when another member answered it.
	origin store.Origin
	// flight is the cell's singleflight slot when it missed the store:
	// led by this request when owned, another request's otherwise.
	flight *store.Flight
	owned  bool
	// lands marks a cell resolved in the background (led here, or sent to
	// its owner): its index arrives on resolve's landed channel once its
	// body or err is final.
	lands bool
	// walk is a routed cell's member order and hop its place in it (see
	// peers.go); from names the member that answered it.
	walk []*member
	hop  int
	from string
	err  error
}

// resolve is svwd's one path from engine jobs to served result bytes;
// /v1/run, both /v1/sweep forms and /v1/studies all reach the store, the
// fabric, the admission gate and the engine only through it. Per cell, in
// order:
//
//  1. probe the local store tiers: memory, then disk;
//  2. send a miss another member owns to that owner (route, peers.go),
//     unless the request is itself a forwarded batch;
//  3. claim the other misses' singleflight slots: lead the computation, or
//     wait on the concurrent request already computing it;
//  4. admit the led cells through the gate (refused: errGateSaturated,
//     and the claimed flights fail with it);
//  5. run the led cells on one batch engine in the background, each
//     encoded and published to its flight the moment it finishes — never
//     held for this request's own emission, so two requests each waiting
//     on cells the other leads cannot deadlock;
//  6. deliver the cells in job order and account them as served.
//
// With emit nil, cells are delivered all at once: resolve returns them
// when every cell resolved, and the first failed cell fails the request.
// Otherwise each cell, failed or not, goes to emit as soon as it and every
// cell before it are ready (SSE); an emit error stops the resolve. open,
// when set, is called once the led cells are admitted and before any cell
// is awaited (an SSE stream opens there); its error stops the resolve.
// Either way a cell counts in the store's hit/miss accounting only once it
// is delivered, so rejected, failed or abandoned work skews no rates.
//
// Forwarded cells' bodies alias pooled reply buffers: a caller given the
// cells calls releaseReplies once its response is written and no body is
// read again. On an error resolve releases them itself.
func (s *Server) resolve(ctx context.Context, r *http.Request, planned []api.PlannedCell, open func() error, emit func(*cell) error) (_ []cell, err error) {
	tr := trace.FromContext(ctx)
	cells := make([]cell, len(planned))
	// Deferred first, so it runs after the forwards have been waited for.
	defer func() {
		if err != nil {
			releaseReplies(cells)
		}
	}()
	t0 := time.Now()
	sp := tr.Start("store_probe")
	for i := range cells {
		c := &cells[i]
		c.index, c.PlannedCell = i, &planned[i]
		c.body, c.origin = s.store.Get(c.Key)
	}
	if sp.Active() {
		annotateProbe(sp, cells)
	}
	sp.End()
	s.metrics.storeProbe.Observe(time.Since(t0))

	self, members, urls := s.peers.snapshot()
	if r.Header.Get(api.ForwardedHeader) != "" {
		members = nil
	}
	now := time.Now()
	var routed, owned []*cell
	for i := range cells {
		c := &cells[i]
		if c.origin != store.OriginMiss {
			continue
		}
		if len(members) > 0 {
			if w := walk(members, urls, c.Key, now); w[0].url != self {
				c.walk, c.lands = w, true
				routed = append(routed, c)
				continue
			}
		}
		if s.claim(c) {
			c.lands = true
			owned = append(owned, c)
		}
	}

	landed := make(chan int, len(routed)+len(owned))
	if len(owned) > 0 {
		release, ok := s.lead(tr, r, owned)
		if !ok {
			return nil, errGateSaturated
		}
		defer release()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.compute(ctx, tr, owned, landed)
		}()
		// The gate units go back once the run has finished. A request whose
		// context ended does not wait: its run skips every queued job and
		// only finishes the ones already executing.
		defer func() {
			if ctx.Err() == nil {
				<-done
			}
		}()
	}
	if len(routed) > 0 {
		// Forwards still in flight when resolve returns early are
		// cancelled, and waited for: they write into cells.
		rctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.route(rctx, tr, r, self, urls, routed, landed)
		}()
		defer func() {
			cancel()
			<-done
		}()
	}

	if open != nil {
		if err := open(); err != nil {
			return nil, err
		}
	}
	have := make([]bool, len(cells))
	for i := range cells {
		c := &cells[i]
		switch {
		case c.lands:
			for !have[i] {
				select {
				case j := <-landed:
					have[j] = true
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if c.err != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
		case c.flight != nil:
			if c.body, c.err = s.await(ctx, tr, r, c); ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		if c.err == nil && !c.owned {
			c.body, c.err = api.RenameResult(c.body, c.Name())
		}
		if emit == nil {
			if c.err != nil {
				return nil, c.err
			}
			continue
		}
		if err := emit(c); err != nil {
			return nil, err
		}
		s.account(cells[i : i+1])
	}
	if emit == nil {
		s.account(cells)
	}
	return cells, nil
}

// claim takes c's singleflight slot and reports whether this request now
// leads the cell's computation. Otherwise c.flight is the flight to wait
// on, or — when a flight completed between the probe and the claim and
// left its bytes in the store — c is a hit, discovered late.
func (s *Server) claim(c *cell) bool {
	f, leader := s.store.BeginFlight(c.Key)
	if !leader {
		c.flight = f
		return false
	}
	if body, origin := s.store.Get(c.Key); origin != store.OriginMiss {
		f.Complete(body, nil, false)
		c.body, c.origin, c.flight = body, origin, nil
		return false
	}
	c.flight, c.owned = f, true
	return true
}

// lead admits the cells this request leads through the gate. Refused,
// each fails with errGateSaturated, and so does its flight.
func (s *Server) lead(tr *trace.Trace, r *http.Request, owned []*cell) (release func(), ok bool) {
	release, ok = s.admit(tr, r, len(owned))
	if !ok {
		for _, c := range owned {
			c.flight.Complete(nil, errGateSaturated, false)
			c.err = errGateSaturated
		}
	}
	return release, ok
}

// admit takes n gate units for r's client, timing the acquire.
func (s *Server) admit(tr *trace.Trace, r *http.Request, n int) (release func(), ok bool) {
	t0 := time.Now()
	sp := tr.Start("gate_wait")
	release, ok = s.gate.tryAcquire(clientID(r), n)
	sp.End()
	s.metrics.gateWait.Observe(time.Since(t0))
	return release, ok
}

// compute runs the owned cells on a batch engine, encoding each result
// into its cell and completing its flight from the ordered progress
// callback, then landing it (landed has room for every owned cell: sends
// never block). Owned cells the run never delivered land failed, their
// flights abandoned, before it returns.
func (s *Server) compute(ctx context.Context, tr *trace.Trace, owned []*cell, landed chan<- int) {
	sub := make([]engine.Job, len(owned))
	for k, c := range owned {
		sub[k] = c.Job()
	}
	t0 := time.Now()
	run := tr.Start("engine_run")
	// One encode span runs from the first result's encoding to the last;
	// the stage histogram gets the summed encode time.
	var enc trace.Span
	var encTime time.Duration
	eng := engine.New(s.workers)
	eng.SetTimeout(s.jobTimeout)
	// Sampled runs probe the shared store for warm-state checkpoints —
	// local tiers first, then the key's rendezvous owner over the
	// peer-read path — so one fast-forward serves the whole fabric.
	eng.SetCheckpointStore(serverCheckpoints{s})
	delivered := make([]bool, len(owned))
	_, err := eng.RunContext(ctx, sub, func(jr engine.JobResult) {
		c := owned[jr.Index]
		c.err = jr.Err
		if c.err == nil {
			if !enc.Active() {
				enc = tr.Start("encode")
			}
			t := time.Now()
			c.body, c.err = marshalResult(jr.Result)
			encTime += time.Since(t)
		}
		c.flight.Complete(c.body, c.err, c.err == nil)
		delivered[jr.Index] = true
		landed <- c.index
	})
	s.countEngine(eng)
	enc.End()
	run.End()
	s.metrics.engineRun.Observe(time.Since(t0))
	if encTime > 0 {
		s.metrics.encode.Observe(encTime)
	}
	if err == nil {
		err = store.ErrFlightAbandoned
	}
	for k, c := range owned {
		if !delivered[k] {
			c.flight.Complete(nil, err, false)
			c.err = err
			landed <- c.index
		}
	}
}

// computeHere resolves routed cells whose walk reached this server: each
// is claimed like a probe miss, the led ones admitted together and run on
// one batch engine, the others awaited or served late from the store.
// Each lands once final.
func (s *Server) computeHere(ctx context.Context, tr *trace.Trace, r *http.Request, cells []*cell, landed chan<- int) {
	var owned []*cell
	for _, c := range cells {
		if s.claim(c) {
			owned = append(owned, c)
			continue
		}
		if c.flight != nil {
			c.body, c.err = s.await(ctx, tr, r, c)
		}
		landed <- c.index
	}
	if len(owned) == 0 {
		return
	}
	release, ok := s.lead(tr, r, owned)
	if !ok {
		for _, c := range owned {
			landed <- c.index
		}
		return
	}
	defer release()
	s.compute(ctx, tr, owned, landed)
}

// await resolves a cell from the flight another request leads. If that
// flight fails while this request is still live — its leader lost its
// client or hit its own deadline — the cell is claimed again rather than
// inheriting a failure this request didn't earn: the request waits on
// whoever claimed it first, or leads it under one gate unit of its own,
// so N such waiters still compute the cell once. A refusal of the gate,
// the leader's or this request's, is this request's too.
func (s *Server) await(ctx context.Context, tr *trace.Trace, r *http.Request, c *cell) ([]byte, error) {
	for {
		b, err := c.flight.Wait(ctx)
		if err == nil || ctx.Err() != nil || errors.Is(err, errGateSaturated) {
			return b, err
		}
		if !s.claim(c) {
			if c.flight == nil {
				return c.body, nil
			}
			continue
		}
		release, ok := s.lead(tr, r, []*cell{c})
		if !ok {
			return nil, errGateSaturated
		}
		s.compute(ctx, tr, []*cell{c}, make(chan int, 1))
		release()
		return c.body, c.err
	}
}

// annotateProbe records a probe's outcome on its store_probe span: the
// serving tier for a one-cell request, per-tier tallies otherwise.
func annotateProbe(sp trace.Span, cells []cell) {
	if len(cells) == 1 {
		sp.SetAttr("tier", cells[0].origin.String())
		return
	}
	var n [4]int
	for i := range cells {
		n[cells[i].origin]++
	}
	sp.SetAttr("jobs", strconv.Itoa(len(cells)))
	sp.SetAttr("hits", strconv.Itoa(len(cells)-n[store.OriginMiss]))
	sp.SetAttr("disk_hits", strconv.Itoa(n[store.OriginDisk]))
	sp.SetAttr("misses", strconv.Itoa(n[store.OriginMiss]))
}

// account records delivered cells in the store counters: each store-served
// cell under its tier, each cell this request computed as a miss.
// Coalesced waits are already counted under Coalesced, so a fabric-wide
// sum stays one count per served cell.
func (s *Server) account(cells []cell) {
	var hits, disk, peer, misses uint64
	for i := range cells {
		c := &cells[i]
		switch {
		case c.err != nil:
		case c.origin == store.OriginMemory:
			hits++
		case c.origin == store.OriginDisk:
			disk++
		case c.origin == store.OriginPeer:
			peer++
		case c.owned:
			misses++
		}
	}
	if hits+disk+misses > 0 {
		s.store.Account(hits, disk, misses)
	}
	if peer > 0 {
		s.store.AccountPeer(peer)
	}
}

// --- /v1/run and /v1/sweep -----------------------------------------------

// handleRun serves one job as a one-cell sweep; X-Svwd-Cache names the
// tier that served it ("miss" when computed).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveSweep(w, r, req.Sweep(), "run", false)
}

// handleSweep resolves a sweep in job order — the matrix flattened
// config-major (the `svwsim -config a,b -bench x,y` order), or the cells
// form's list as given: buffered, the body is every result object in job
// order — byte-identical to the equivalent multi-job `svwsim -json`
// invocation — and X-Svwd-Cache lists each cell's serving tier; with
// Accept: text/event-stream, one SSE "result" event per job in job order,
// then a "done" summary.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveSweep(w, r, req, "sweep", api.WantsSSE(r))
}

// serveSweep plans a decoded request through api's one Plan — against the
// server's default sampling spec and MaxSweepJobs, answering 400 with its
// error — and resolves the jobs, as an SSE stream or buffered. what names
// the request in a failure's message.
func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, req SweepRequest, what string, stream bool) {
	s.observePeers(r)
	ctx, cancel, ok := api.RequestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	// A forwarded batch carries its spec already resolved by its sender.
	def := s.defaultSample
	if r.Header.Get(api.ForwardedHeader) != "" {
		def = pipeline.SampleSpec{}
	}
	planned, err := req.Plan(def, s.maxSweepJobs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(api.SampleHeader, api.SampleName(planned[0].Sample))
	if stream {
		s.streamSweep(ctx, w, r, planned)
		return
	}
	resolved, err := s.resolve(ctx, r, planned, nil, nil)
	if err != nil {
		writeResolveError(w, r, err, what+" failed")
		return
	}
	defer releaseReplies(resolved)
	n := 0
	for i := range resolved {
		n += len(resolved[i].body)
	}
	// One buffer, one Write: written cell by cell, the response would
	// pass through net/http's small write buffer in many syscalls.
	buf := getBuf(n)
	defer putBuf(buf)
	tiers := make([]string, len(resolved))
	for i := range resolved {
		*buf = append(*buf, resolved[i].body...)
		tiers[i] = resolved[i].origin.String()
	}
	w.Header().Set(api.CacheHeader, strings.Join(tiers, ","))
	writeBody(w, http.StatusOK, *buf)
}

// streamSweep is the SSE consumer of resolve. The stream opens as soon as
// resolve has admitted the request's led cells, before any cell is
// awaited, so a client's header timeout need not cover a cold cell; a
// refusal (429) or a failure before that point answers with an ordinary
// error response, and one after it leaves the stream without its "done"
// event, so a live client can tell the sweep did not complete.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, r *http.Request, planned []api.PlannedCell) {
	var stream *api.SSE
	summary := SweepDone{Jobs: len(planned)}
	open := func() (err error) {
		stream, err = api.NewSSE(w)
		return err
	}
	resolved, err := s.resolve(ctx, r, planned, open, func(c *cell) error {
		ev := SweepEvent{Index: c.index, Config: c.Name(), Bench: c.Bench, Backend: c.from}
		if c.origin != store.OriginMiss {
			ev.Cached, ev.Origin = true, c.origin.String()
		}
		if c.err != nil {
			ev.Error = c.err.Error()
		} else {
			ev.Result = json.RawMessage(c.body)
		}
		summary.Add(ev)
		stream.Event("result", c.index, ev)
		return nil
	})
	if err != nil {
		if stream == nil {
			writeResolveError(w, r, err, "sweep failed")
		}
		return
	}
	releaseReplies(resolved)
	stream.Event("done", len(planned), summary)
}

// --- /v1/studies/{study} -------------------------------------------------

// planStudy keys a study's jobs as cells, each holding its job by
// pointer. Every job of a study svwd serves rebuilds from its own
// Config.Name (sim's TestStudyJobsRebuildFromTheirNames pins this; it is
// also how a cell reaches its owner), so each is keyed through
// sim.MachineByName like a sweep cell: a lookup for the standard rungs, a
// digest for an SSN width outside the table.
func planStudy(jobs []engine.Job) []api.PlannedCell {
	planned := make([]api.PlannedCell, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		p := &planned[i]
		p.Bench, p.Insts, p.Sample, p.Study = j.Bench, j.Insts, j.Sample, j
		if m, ok := sim.MachineByName(j.Config.Name); ok {
			p.Key = m.Key(j.Bench, j.Insts, j.Sample)
		} else {
			p.Key = engine.SampledFingerprint(j.Config, j.Bench, j.Insts, j.Sample)
		}
	}
	return planned
}

// studyParams are the query parameters shared by the study endpoints.
type studyParams struct {
	fig     int
	benches []string
	bits    []int
	insts   uint64
	// sample is the study's sampling spec: ?sample=w:d:p when given, then
	// resolved against the server default by handleStudy.
	sample pipeline.SampleSpec
}

// parseStudyParams reads and validates ?fig=&benches=&bits=&insts=&sample=.
// It writes the error response itself on failure.
func parseStudyParams(w http.ResponseWriter, r *http.Request, defaultBenches []string) (*studyParams, bool) {
	q := r.URL.Query()
	p := &studyParams{benches: defaultBenches, bits: sim.SSNWidths()}
	if v := q.Get("fig"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid fig %q", v)
			return nil, false
		}
		p.fig = n
	}
	if v := q.Get("benches"); v != "" {
		p.benches = strings.Split(v, ",")
		for _, b := range p.benches {
			if _, ok := workload.Get(b); !ok {
				writeError(w, http.StatusBadRequest, "unknown benchmark %q", b)
				return nil, false
			}
		}
	}
	if v := q.Get("bits"); v != "" {
		p.bits = nil
		for _, f := range strings.Split(v, ",") {
			n, err := strconv.Atoi(f)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "invalid bits value %q", f)
				return nil, false
			}
			p.bits = append(p.bits, n)
		}
	}
	if v := q.Get("insts"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid insts %q", v)
			return nil, false
		}
		p.insts = n
	}
	if v := q.Get("sample"); v != "" {
		spec, err := pipeline.ParseSampleSpec(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return nil, false
		}
		p.sample = spec
	}
	return p, true
}

// handleStudy serves a paper study as a sweep plus a reduce: the study
// descriptor's jobs resolve as ordinary cells — shared with sweeps, runs,
// peers and other studies under the same per-cell store keys — and the
// decoded cell results reduce to the report `svwexp -json` prints.
func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("study")
	defaults := sim.AllBenches()
	if name == "fig8" {
		defaults = workload.Fig8Subset()
	}
	p, ok := parseStudyParams(w, r, defaults)
	if !ok {
		return
	}
	if p.sample, ok = s.resolveSample(w, p.sample); !ok {
		return
	}
	// Every study runs each bench at least once, the SSN study once per
	// width: bound the matrix by that before building its jobs.
	cells := len(p.benches)
	if name == "ssn" {
		cells *= len(p.bits)
	}
	if !s.checkCells(w, cells) {
		return
	}
	var st sim.Study[sim.Report]
	switch name {
	case "ladder":
		fs, err := sim.FigureStudy(p.fig, p.benches, p.insts, p.sample)
		if err != nil {
			writeError(w, http.StatusBadRequest, "ladder study needs ?fig=5|6|7 (got %d)", p.fig)
			return
		}
		st = sim.Reported(fs)
	case "fig8":
		st = sim.Reported(sim.Fig8Study(p.benches, p.insts, p.sample))
	case "ssn":
		st = sim.Reported(sim.SSNWidthStudy(p.benches, p.bits, p.insts, p.sample))
	case "ssbf":
		st = sim.Reported(sim.SSBFUpdateStudy(p.benches, p.insts, p.sample))
	default:
		writeError(w, http.StatusNotFound,
			"unknown study %q (want ladder, fig8, ssn or ssbf)", name)
		return
	}
	if !s.checkCells(w, len(st.Jobs)) {
		return
	}
	ctx, cancel, ok := api.RequestContext(w, r)
	if !ok {
		return
	}
	defer cancel()

	resolved, err := s.resolve(ctx, r, planStudy(st.Jobs), nil, nil)
	if err != nil {
		writeResolveError(w, r, err, "study failed")
		return
	}
	defer releaseReplies(resolved)
	results := make([]sim.Result, len(resolved))
	for i := range resolved {
		if results[i], err = api.UnmarshalResult(resolved[i].body); err != nil {
			writeError(w, http.StatusInternalServerError, "decoding cell %d: %v", i, err)
			return
		}
	}
	var body bytes.Buffer
	if err := st.Reduce(results).WriteJSON(&body); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding study: %v", err)
		return
	}
	writeBody(w, http.StatusOK, body.Bytes())
}
