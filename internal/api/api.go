// Package api is the wire contract of the svw simulation services: the
// request/response shapes and the exact JSON encoding shared by the svwd
// daemon (internal/server) and svwctl (internal/cluster, an svwd that owns
// no keys). Every process of a fabric serves the same /v1 surface from
// these types, so a client — svwload, curl, a dashboard — cannot tell a
// single daemon from a fabric of them: there is only one definition of
// every body that crosses the wire.
//
// /v1/run and /v1/sweep bodies use exactly the `svwsim -json` encoding
// (MarshalResult), so any service response can be byte-compared against
// the CLI; the CI smoke stages do exactly that, for svwd and for svwctl
// fronting two svwd children.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
	"svwsim/internal/trace"
	"svwsim/internal/workload"
)

// CacheHeader is set on /v1/run responses to say which store tier served
// the result: "memory" (the in-process LRU), "disk" (the persistent
// tier), "peer" (a peer backend's store), or "miss" (freshly computed).
// On a buffered /v1/sweep response it lists every cell's tier,
// comma-separated in cell order. A cell another member answered is
// "peer" to its requester; the requester counts the member's own tiers
// from this header in its per-member stats.
const CacheHeader = "X-Svwd-Cache"

// The CacheHeader values. These are store.Origin's String() spellings —
// servers derive the header from a store lookup's Origin directly, and a
// test in internal/server pins the two enumerations together.
const (
	CacheMemory = "memory"
	CacheDisk   = "disk"
	CachePeer   = "peer"
	CacheMiss   = "miss"
)

// SampleHeader is set on /v1/run and /v1/sweep responses to name the
// sampling spec the request resolved to: "exact", or the spec's w:d:p
// spelling. A request that carries no spec resolves against the serving
// process's own default.
const SampleHeader = "X-Svwd-Sample"

// SampleName is SampleHeader's value for spec.
func SampleName(spec pipeline.SampleSpec) string {
	if !spec.Enabled() {
		return "exact"
	}
	return spec.String()
}

// PeersHeader carries the sender's member URLs (comma-separated,
// normalized, including the receiver) on forwarded batches. A daemon
// started with -peer-learn adopts the list as its owner election set —
// the sender's membership IS the sharding map, pushed along with the work
// itself so no separate gossip channel exists to drift from it.
// PeerSelfHeader names the URL the sender addressed the receiver by,
// which is how a daemon learns its own identity inside that list without
// being configured with it.
const (
	PeersHeader    = "X-Svw-Peers"
	PeerSelfHeader = "X-Svw-Peer-Self"
)

// ForwardedHeader marks a cells-form /v1/sweep one fabric member sends the
// owner of its cells. The receiver resolves a marked batch from its own
// tiers or engine and never forwards it again, and takes the batch's
// sampling spec as already resolved: a marked batch without one is exact,
// whatever the receiver's own default.
const ForwardedHeader = "X-Svw-Forwarded"

// DeadlineHeader carries the client's latency budget in whole
// milliseconds. Both services derive the request context with that
// timeout, so the budget propagates through admission and into the
// engine (queued-but-unstarted jobs cancel cleanly); an exceeded budget
// is answered with HTTP 504 and an ErrorResponse body.
const DeadlineHeader = "X-Svw-Deadline-Ms"

// ClientHeader names the requesting tenant for fair admission. When the
// server runs with per-client weights, each tenant is admitted against
// its own share of the gate; requests without the header are attributed
// to their remote host.
const ClientHeader = "X-Svw-Client"

// TraceHeader carries the request's trace ID across every layer seam:
// generated at the first traced edge when the client did not send one,
// echoed on the response, and sent verbatim with every forwarded batch —
// so one ID looks a request up on the requester's and an owner's GET
// /debug/traces alike. (The constant lives in
// internal/trace, below this package; re-exported here with the rest of
// the wire contract.)
const TraceHeader = trace.Header

// TracesResponse is the body of GET /debug/traces (without ?id=): the
// daemon's completed-trace ring, most recent first. With ?id= the body is
// a single trace.TraceJSON instead. Re-exported from internal/trace so
// svwload decodes exactly what the daemons serve.
type TracesResponse = trace.TracesResponse

// TraceJSON and SpanJSON are one trace and one span on that wire.
type (
	TraceJSON = trace.TraceJSON
	SpanJSON  = trace.SpanJSON
)

// RunRequest is the body of POST /v1/run: one (config, bench, insts) job.
type RunRequest struct {
	// Config is a registry name (see GET /v1/configs / sim.ConfigNames).
	Config string `json:"config"`
	// Bench is a benchmark kernel name (see GET /v1/benches).
	Bench string `json:"bench"`
	// Insts bounds committed instructions (0 keeps the config's default).
	Insts uint64 `json:"insts"`
	// Sample* configure detailed-window sampling (pipeline.SampleSpec in
	// wire form). All three zero — the fields are omitted on the wire —
	// means exact simulation, or the server's configured default spec if it
	// runs with one. Sampled results live under their own store keys, so
	// they never collide with exact results.
	SampleWarmup uint64 `json:"sample_warmup,omitempty"`
	SampleDetail uint64 `json:"sample_detail,omitempty"`
	SamplePeriod uint64 `json:"sample_period,omitempty"`
}

// Sweep is the run as a one-cell cells-form sweep. Both services plan,
// resolve and forward a run as exactly that, so a run and a sweep cell
// share one validation, one resolve path and one forward route.
func (r *RunRequest) Sweep() SweepRequest {
	return SweepRequest{
		Cells:        []SweepCell{{Config: r.Config, Bench: r.Bench}},
		Insts:        r.Insts,
		SampleWarmup: r.SampleWarmup,
		SampleDetail: r.SampleDetail,
		SamplePeriod: r.SamplePeriod,
	}
}

// SweepRequest is the body of POST /v1/sweep, in one of two forms: a
// config × bench matrix that flattens into a job list config-major
// (configs outer, benches inner), the same order `svwsim -config a,b
// -bench x,y` runs; or an explicit Cells list, run in the order given —
// how a fabric member sends each owner the cells it owns. Insts and the Sample*
// fields apply to every cell either way (see RunRequest).
type SweepRequest struct {
	Configs      []string    `json:"configs,omitempty"`
	Benches      []string    `json:"benches,omitempty"`
	Cells        []SweepCell `json:"cells,omitempty"`
	Insts        uint64      `json:"insts"`
	SampleWarmup uint64      `json:"sample_warmup,omitempty"`
	SampleDetail uint64      `json:"sample_detail,omitempty"`
	SamplePeriod uint64      `json:"sample_period,omitempty"`
}

// SweepCell is one (config, bench) job of a cells-form SweepRequest.
type SweepCell struct {
	Config string `json:"config"`
	Bench  string `json:"bench"`
}

// CheckForm rejects a request that names no cells or mixes the two forms.
func (r *SweepRequest) CheckForm() error {
	switch {
	case len(r.Cells) > 0 && (len(r.Configs) > 0 || len(r.Benches) > 0):
		return errors.New("sweep names both cells and a configs/benches matrix: send one form")
	case len(r.Cells) == 0 && (len(r.Configs) == 0 || len(r.Benches) == 0):
		return errors.New("sweep matrix is empty: need configs and benches, or cells")
	}
	return nil
}

// NumCells is how many jobs the request flattens into, computed without
// flattening it, so a size bound can be enforced first.
func (r *SweepRequest) NumCells() int {
	if len(r.Cells) > 0 {
		return len(r.Cells)
	}
	return len(r.Configs) * len(r.Benches)
}

// Cell returns the request's i-th cell in job order: Cells[i], or the
// matrix flattened config-major.
func (r *SweepRequest) Cell(i int) SweepCell {
	if len(r.Cells) > 0 {
		return r.Cells[i]
	}
	return SweepCell{Config: r.Configs[i/len(r.Benches)], Bench: r.Benches[i%len(r.Benches)]}
}

// Sample assembles the request's sampling spec (zero value = exact).
func (r *SweepRequest) Sample() pipeline.SampleSpec {
	return pipeline.SampleSpec{Warmup: r.SampleWarmup, Detail: r.SampleDetail, Period: r.SamplePeriod}
}

// SetSample spreads spec back into the wire fields.
func (r *SweepRequest) SetSample(spec pipeline.SampleSpec) {
	r.SampleWarmup, r.SampleDetail, r.SamplePeriod = spec.Warmup, spec.Detail, spec.Period
}

// PlannedCell is one cell of a planned request: its machine, held by
// reference into the process's interned table, what the machine runs, and
// the memo key its result lives under in every store tier and on the
// fabric. A warm cell needs only its name and key, so planning copies no
// configuration: Job builds the engine job, configuration and all, for
// the cells a server actually runs.
type PlannedCell struct {
	// Machine is the cell's machine; nil for a study cell, which runs
	// Study.
	Machine *sim.Machine
	Bench   string
	Insts   uint64
	Sample  pipeline.SampleSpec
	Key     string
	// Study is the study job the cell was planned from, held by pointer
	// into the study's job list; nil for a run or sweep cell.
	Study *engine.Job
}

// Name is the display name the cell's result carries, its
// Config.Name.
func (p *PlannedCell) Name() string {
	if p.Study != nil {
		return p.Study.Config.Name
	}
	return p.Machine.Name()
}

// Job is the engine job that computes the cell: the study's own job, or a
// "sweep" job on a copy of the machine's configuration.
func (p *PlannedCell) Job() engine.Job {
	if p.Study != nil {
		return *p.Study
	}
	return engine.Job{Study: "sweep", Label: p.Machine.Name(), Config: p.Machine.Config(),
		Bench: p.Bench, Insts: p.Insts, Sample: p.Sample}
}

// Plan validates the request and returns its cells in job order, each
// with its key. The sampling spec is the request's own when enabled, else
// defaultSample, and every cell carries it resolved, so the spec that
// keys a cell is the spec that runs it. The checks run in a fixed order —
// form, the maxJobs bound, the spec, then each cell's config and bench —
// and an error's text is the 400 message both services answer with.
//
// Each cell's machine comes from sim.MachineByName, so a cell named by a
// registry, display or standard study-rung name costs a table lookup and
// its key is assembled from the machine's cached digest, never hashed.
// That holds at every hop: a forwarded batch names its cells' machines,
// and the owner plans it here again, re-deriving each key from the name
// rather than taking one off the wire.
func (r *SweepRequest) Plan(defaultSample pipeline.SampleSpec, maxJobs int) ([]PlannedCell, error) {
	if err := r.CheckForm(); err != nil {
		return nil, err
	}
	if n := r.NumCells(); n > maxJobs {
		return nil, fmt.Errorf("sweep matrix has %d jobs, limit is %d", n, maxJobs)
	}
	spec := r.Sample()
	if !spec.Enabled() {
		spec = defaultSample
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	planned := make([]PlannedCell, r.NumCells())
	for i := range planned {
		c := r.Cell(i)
		m, ok := sim.MachineByName(c.Config)
		if !ok {
			return nil, fmt.Errorf("unknown config %q", c.Config)
		}
		if _, ok := workload.Get(c.Bench); !ok {
			return nil, fmt.Errorf("unknown benchmark %q", c.Bench)
		}
		planned[i] = PlannedCell{Machine: m, Bench: c.Bench, Insts: r.Insts, Sample: spec,
			Key: m.Key(c.Bench, r.Insts, spec)}
	}
	return planned, nil
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ConfigsResponse is the body of GET /v1/configs.
type ConfigsResponse struct {
	Configs []string `json:"configs"`
}

// BenchesResponse is the body of GET /v1/benches.
type BenchesResponse struct {
	Benches []string `json:"benches"`
}

// HealthResponse is the body of GET /v1/healthz. Status is "ok" while
// serving and "draining" (with HTTP 503) once shutdown has begun, so load
// balancers stop routing new work during the drain. svwctl adds
// "degraded" (503) when every backend is marked down, and reports pool
// counts in the Backends* fields (omitted by svwd).
type HealthResponse struct {
	Status          string  `json:"status"`
	UptimeS         float64 `json:"uptime_s"`
	BackendsHealthy *int    `json:"backends_healthy,omitempty"`
	BackendsTotal   *int    `json:"backends_total,omitempty"`
}

// StatsResponse is the body of GET /v1/stats. From svwd the Cluster field
// is absent; from svwctl the Cache/Engine/Admission sections are sums over
// the backend pool and Cluster carries svwctl's own routing counters, so
// tooling written against one shape (svwload) reads both.
type StatsResponse struct {
	UptimeS   float64       `json:"uptime_s"`
	Cache     CacheStats    `json:"cache"`
	Engine    EngineStats   `json:"engine"`
	Admission GateStats     `json:"admission"`
	Cluster   *ClusterStats `json:"cluster,omitempty"`
}

// CacheStats is the /v1/stats view of a tiered result store (or, from
// svwctl, the pool-wide sum). It is the one definition of the cache
// counters: server, cluster and svwload all read and write this struct,
// so the layers cannot drift apart. Hits counts memory-tier hits;
// DiskHits counts results served from the persistent tier. The Disk*
// occupancy fields are zero on a store with no disk tier.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits"`
	// PeerHits counts results fetched from a peer backend's store over the
	// fabric's peer-read protocol instead of recomputed locally.
	PeerHits  uint64 `json:"peer_hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// PromotionEvictions is the subset of Evictions forced by disk-hit
	// promotions — reads cannibalizing the memory tier, as opposed to
	// Put-driven growth.
	PromotionEvictions uint64 `json:"promotion_evictions"`
	// PromotionsDeferred counts disk hits served without promotion: the
	// memory tier was full and the key had not been disk-hit recently.
	PromotionsDeferred uint64 `json:"promotions_deferred"`
	// Coalesced counts singleflight waits: concurrent requests for a key
	// already being computed that shared the one in-flight computation
	// instead of running their own.
	Coalesced       uint64 `json:"coalesced"`
	Entries         int    `json:"entries"`
	Capacity        int    `json:"capacity"`
	DiskEntries     int    `json:"disk_entries"`
	DiskBytes       int64  `json:"disk_bytes"`
	DiskMaxBytes    int64  `json:"disk_max_bytes"`
	DiskEvictions   uint64 `json:"disk_evictions"`
	DiskCorrupt     uint64 `json:"disk_corrupt"`
	DiskWriteErrors uint64 `json:"disk_write_errors"`
	// Writebehind* snapshot the disk tier's write-behind queue: current
	// depth (entries not yet on disk), batches flushed, and writes dropped
	// by a full queue. All zero when writes are synchronous.
	WritebehindDepth   int    `json:"writebehind_depth"`
	WritebehindFlushes uint64 `json:"writebehind_flushes"`
	WritebehindDrops   uint64 `json:"writebehind_drops"`
}

// StoreCacheStats converts a store snapshot to its wire shape.
func StoreCacheStats(st store.Stats) CacheStats {
	return CacheStats{
		Hits:               st.Hits,
		DiskHits:           st.DiskHits,
		PeerHits:           st.PeerHits,
		Misses:             st.Misses,
		Evictions:          st.Evictions,
		PromotionEvictions: st.PromotionEvictions,
		PromotionsDeferred: st.PromotionsDeferred,
		Coalesced:          st.Coalesced,
		Entries:            st.Entries,
		Capacity:           st.Capacity,
		DiskEntries:        st.Disk.Entries,
		DiskBytes:          st.Disk.Bytes,
		DiskMaxBytes:       st.Disk.MaxBytes,
		DiskEvictions:      st.Disk.Evictions,
		DiskCorrupt:        st.Disk.Corrupt,
		DiskWriteErrors:    st.Disk.WriteErrors,
		WritebehindDepth:   st.WriteBehind.Depth,
		WritebehindFlushes: st.WriteBehind.Flushes,
		WritebehindDrops:   st.WriteBehind.Drops,
	}
}

// Add accumulates o into s field by field — svwctl's pool-wide
// aggregation. Living next to the struct, it cannot silently miss a field
// the way per-caller summing loops can.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.DiskHits += o.DiskHits
	s.PeerHits += o.PeerHits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.PromotionEvictions += o.PromotionEvictions
	s.PromotionsDeferred += o.PromotionsDeferred
	s.Coalesced += o.Coalesced
	s.Entries += o.Entries
	s.Capacity += o.Capacity
	s.DiskEntries += o.DiskEntries
	s.DiskBytes += o.DiskBytes
	s.DiskMaxBytes += o.DiskMaxBytes
	s.DiskEvictions += o.DiskEvictions
	s.DiskCorrupt += o.DiskCorrupt
	s.DiskWriteErrors += o.DiskWriteErrors
	s.WritebehindDepth += o.WritebehindDepth
	s.WritebehindFlushes += o.WritebehindFlushes
	s.WritebehindDrops += o.WritebehindDrops
}

// EngineStats surfaces the engine reuse counters, summed over every batch
// engine svwd has run, plus their sampled-simulation counters
// (engine.SampleStats on the wire): how much functional fast-forward work
// ran and how often stored warm-state checkpoints spared it.
type EngineStats struct {
	MemoHits   uint64 `json:"memo_hits"`
	MemoMisses uint64 `json:"memo_misses"`
	// FastForwards counts fast-forward legs actually emulated, and
	// FastForwardInsts the instructions those legs executed.
	FastForwards     uint64 `json:"fast_forwards"`
	FastForwardInsts uint64 `json:"fast_forward_insts"`
	// CheckpointHits counts legs answered by a stored checkpoint instead of
	// emulation; CheckpointMisses the probes that found nothing and fell
	// back; CheckpointPuts the checkpoints persisted.
	CheckpointHits   uint64 `json:"checkpoint_hits"`
	CheckpointMisses uint64 `json:"checkpoint_misses"`
	CheckpointPuts   uint64 `json:"checkpoint_puts"`
}

// Add accumulates o into s (see CacheStats.Add).
func (s *EngineStats) Add(o EngineStats) {
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.FastForwards += o.FastForwards
	s.FastForwardInsts += o.FastForwardInsts
	s.CheckpointHits += o.CheckpointHits
	s.CheckpointMisses += o.CheckpointMisses
	s.CheckpointPuts += o.CheckpointPuts
}

// GateStats is the /v1/stats view of the admission gate.
type GateStats struct {
	// Capacity is the configured max concurrent jobs (0 = unlimited).
	Capacity int    `json:"capacity"`
	InUse    int    `json:"in_use"`
	Rejected uint64 `json:"rejected"`
}

// Add accumulates o into s (see CacheStats.Add).
func (s *GateStats) Add(o GateStats) {
	s.Capacity += o.Capacity
	s.InUse += o.InUse
	s.Rejected += o.Rejected
}

// ClusterStats is svwctl's own /v1/stats section: its routing counters
// plus the per-backend breakdown. Jobs counts each cell a backend answered
// exactly once, however many forwards it took.
type ClusterStats struct {
	BackendsTotal int `json:"backends_total"`
	// BackendsHealthy counts the backends not marked down by a failed
	// forward.
	BackendsHealthy int `json:"backends_healthy"`
	// Runs / Sweeps count client requests; Jobs counts the cells backends
	// answered, JobErrors the cells no backend could.
	Runs      uint64 `json:"runs"`
	Sweeps    uint64 `json:"sweeps"`
	Jobs      uint64 `json:"jobs"`
	JobErrors uint64 `json:"job_errors"`
	// Retries counts cell moves to the next backend of their walk after a
	// failed forward. Hedges is always 0: svwctl no longer hedges, and the
	// field stays only for tooling that reads it.
	Retries  uint64                `json:"retries"`
	Hedges   uint64                `json:"hedges"`
	Backends []ClusterBackendStats `json:"backends"`
}

// ClusterBackendStats is one backend's row in ClusterStats.
type ClusterBackendStats struct {
	URL string `json:"url"`
	// Healthy is false while a failed forward's down mark lasts.
	Healthy bool `json:"healthy"`
	// InFlight is the forwards to this backend currently in flight.
	InFlight int `json:"in_flight"`
	// Requests counts forwarded batches; Errors the ones that failed.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// JobsOK counts cells the backend answered; CacheHits the subset it
	// served from its memory tier, DiskHits from its disk tier, PeerHits
	// from another member (all via CacheHeader).
	JobsOK    uint64 `json:"jobs_ok"`
	CacheHits uint64 `json:"cache_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	PeerHits  uint64 `json:"peer_hits"`
	// HealthFlaps counts the down marks a forward put on a backend that
	// was up.
	HealthFlaps uint64 `json:"health_flaps"`
	// LastError is the most recent forwarding error (empty once a forward
	// succeeds).
	LastError string `json:"last_error,omitempty"`
}

// SweepEvent is the data payload of one SSE "result" event during
// POST /v1/sweep streaming: the job's index in the flattened matrix plus
// where its result came from. Events always arrive in index order.
type SweepEvent struct {
	Index  int    `json:"index"`
	Config string `json:"config"`
	Bench  string `json:"bench"`
	// Cached: served from a result store or another member, no engine
	// involvement here. Origin says which tier ("memory", "disk" or
	// "peer"); it is empty for computed jobs.
	Cached bool   `json:"cached"`
	Origin string `json:"origin,omitempty"`
	// Backend is the URL of the member that answered a forwarded job
	// (omitted for jobs served here).
	Backend string `json:"backend,omitempty"`
	// Error is set instead of Result when the job failed (or was cancelled).
	Error string `json:"error,omitempty"`
	// Result is the engine result in the `svwsim -json` shape.
	Result json.RawMessage `json:"result,omitempty"`
}

// SweepDone is the data payload of the final SSE "done" event. CacheHits
// counts every store-served job (all tiers); DiskHits and PeerHits the
// disk-tier and peer-fetched subsets.
type SweepDone struct {
	Jobs        int `json:"jobs"`
	CacheHits   int `json:"cache_hits"`
	DiskHits    int `json:"disk_hits"`
	PeerHits    int `json:"peer_hits"`
	CacheMisses int `json:"cache_misses"`
	Errors      int `json:"errors"`
}

// Add tallies one delivered event into the summary: a store-served event
// under CacheHits and its tier's subset, any other under CacheMisses, and
// a failed one under Errors too. Jobs is the sweep's size, set up front.
func (d *SweepDone) Add(ev SweepEvent) {
	if ev.Cached {
		d.CacheHits++
		switch ev.Origin {
		case CacheDisk:
			d.DiskHits++
		case CachePeer:
			d.PeerHits++
		}
	} else {
		d.CacheMisses++
	}
	if ev.Error != "" {
		d.Errors++
	}
}

// --- request helpers -----------------------------------------------------

// DecodeBody parses the request body into v under maxBytes, writing the
// error response itself and reporting whether decoding succeeded. Both
// services decode through it, so clients see one behavior: unknown
// fields, oversized bodies and trailing content after the JSON object
// (`{"config":"x"} junk`) are all rejected.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	// A second decode must see a clean EOF; anything else is trailing
	// content the first decode silently stopped in front of.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		WriteError(w, http.StatusBadRequest,
			"invalid request body: trailing data after JSON object")
		return false
	}
	return true
}

// RequestContext derives the handler's context from the request,
// applying the DeadlineHeader budget when present. On a malformed
// header it writes the 400 itself and reports ok=false. cancel must be
// called (it is a no-op when no deadline was set).
func RequestContext(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ctx = r.Context()
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return ctx, func() {}, true
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		WriteError(w, http.StatusBadRequest,
			"invalid %s header %q: want a positive integer of milliseconds", DeadlineHeader, h)
		return nil, nil, false
	}
	ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, true
}

// --- encoding helpers ----------------------------------------------------

// WriteJSON writes v as indented JSON with a trailing newline (the same
// encoding `svwsim -json` and `svwexp -json` use).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteBody(w, status, append(b, '\n'))
}

// WriteBody writes pre-serialized JSON bytes. It declares their length, so
// a reader can size its buffer once and the reply is not chunked.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError writes an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// MarshalResult encodes an engine result exactly as `svwsim -json` does:
// indented JSON plus a trailing newline. Both service layers store and
// serve results in this form, so cache hits, fresh runs, forwarded cells
// and the CLI are all byte-identical.
func MarshalResult(res engine.Result) ([]byte, error) {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// resultLen is the length of the MarshalResult encoding body starts
// with: through the first "\n}\n", or -1 if body holds none. The
// top-level object's closing brace is the only one MarshalIndent puts at
// the start of a line, and JSON strings cannot hold a raw newline, so
// this marks cell boundaries. The scan steps from brace to brace — a
// result holds a few — not from newline to newline, which start every
// one of its lines.
func resultLen(body []byte) int {
	for i := 0; ; i++ {
		j := bytes.IndexByte(body[i:], '}')
		if j < 0 {
			return -1
		}
		if i += j; i > 0 && body[i-1] == '\n' && i+1 < len(body) && body[i+1] == '\n' {
			return i + 2
		}
	}
}

// SplitResults splits a concatenation of MarshalResult encodings — a
// buffered /v1/sweep body — back into its n cells, sharing body's bytes.
// A body that does not hold exactly n whole cells, such as one cut off
// mid-transfer, is an error.
func SplitResults(body []byte, n int) ([][]byte, error) {
	cells := make([][]byte, 0, n)
	for len(body) > 0 {
		k := resultLen(body)
		if k < 0 || body[0] != '{' {
			return nil, fmt.Errorf("sweep body: cell %d is not a whole result", len(cells))
		}
		cells = append(cells, body[:k])
		body = body[k:]
	}
	if len(cells) != n {
		return nil, fmt.Errorf("sweep body holds %d results, want %d", len(cells), n)
	}
	return cells, nil
}

// UnmarshalResult decodes MarshalResult's bytes back into the engine
// result. The encoding round-trips every field exactly, the float rates
// included, so a study reduced from stored cell bytes reports the same
// figures as one reduced from the results that produced them.
func UnmarshalResult(b []byte) (engine.Result, error) {
	var res engine.Result
	err := json.Unmarshal(b, &res)
	return res, err
}

// configField opens the display-name line of MarshalResult's encoding.
var configField = []byte("\n  \"Config\": \"")

// RenameResult returns MarshalResult bytes whose "Config" display name is
// name. Store keys ignore display names, so a cell computed under one
// name — a study rung such as "ssq+svw/ssn16" — may be served to a
// request that names the same machine differently ("ssq+SVW+UPD"); the
// served bytes must carry the requester's name. When the name already
// matches (the common case) body is returned as is, without allocating.
func RenameResult(body []byte, name string) ([]byte, error) {
	if i := bytes.Index(body, configField); i >= 0 && plainJSONString(name) {
		rest := body[i+len(configField):]
		if len(rest) > len(name) && string(rest[:len(name)]) == name && rest[len(name)] == '"' {
			return body, nil
		}
	}
	res, err := UnmarshalResult(body)
	if err != nil {
		return nil, err
	}
	res.Config = name
	return MarshalResult(res)
}

// plainJSONString reports whether encoding/json writes s verbatim between
// its quotes (printable ASCII with nothing escaped), so raw bytes can be
// compared against it.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}
