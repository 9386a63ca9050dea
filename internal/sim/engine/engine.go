// Package engine executes experiment sweeps: flat lists of (machine
// configuration, benchmark, instruction budget) jobs run on a bounded
// worker pool that takes its jobs from one shared queue.
//
// The engine exists because the paper's evaluation (Figs. 5–8 and the §3.6
// sensitivity studies) is a configuration matrix, and large parts of that
// matrix repeat: every ladder re-runs its baseline on every benchmark, the
// summary study re-runs three whole ladders, and -all sweeps overlap. The
// engine therefore:
//
//   - hands jobs out in job order from one shared cursor: a worker takes
//     the next unclaimed index whenever it finishes a job, so a few slow
//     configurations (e.g. 4-cycle-load baselines) cannot strand work
//     behind them;
//   - memoizes (configuration, benchmark, instruction budget) → result, so
//     any job that is semantically identical to an earlier one — the Name
//     label is ignored — executes exactly once per Engine, however many
//     sweeps ask for it. A job whose twin is still executing, in the same
//     Run or a concurrent one, waits on that execution's done channel;
//   - runs each worker's jobs on one simulator, Reset between jobs and
//     drawn from a process-wide pool of idle cores, so a core outlives the
//     run and the engine that built it (see idleCores);
//   - emulates each committed path once: every job that runs a program from
//     the same start point replays one shared oracle trace (traces.go);
//   - delivers results and progress deterministically: Run's result slice
//     is indexed by job position, and the optional progress callback fires
//     in job-index order regardless of completion order, so -j 1 and -j N
//     produce byte-identical output.
//
// An Engine is safe for concurrent use. Its memo table is a plain map that
// lives as long as the Engine and is never evicted: share one Engine across
// studies (svwexp, svwsim) to get cross-study reuse, and scope one to a
// batch where a longer-lived cache already sits above it (svwd, whose
// result store is the process's only cross-request cache).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"svwsim/internal/pipeline"
	"svwsim/internal/trace"
)

// Job is one experiment: a machine configuration on a benchmark kernel.
type Job struct {
	// Study labels the sweep the job belongs to (e.g. "fig5-nlq"); it is
	// carried through to results for provenance and ignored by memoization.
	Study string
	// Label names the job's row within the study (e.g. "+SVW+UPD").
	Label  string
	Config Config
	Bench  string
	// Insts bounds committed instructions (0 keeps the config's default).
	Insts uint64
	// Sample, when enabled, runs the job sampled: detailed windows of
	// Warmup+Detail commits every Period instructions, the gaps
	// fast-forwarded functionally, counters scaled back to the budget
	// (sample.go). The spec is part of the memo key, so sampled results
	// never collide with exact ones. The zero value is exact simulation.
	Sample pipeline.SampleSpec
}

// JobResult pairs a job with its outcome. Results are always returned in
// job order: result i is job i.
type JobResult struct {
	Index    int
	Job      Job
	Result   Result
	Err      error
	Memoized bool          // served from the memo table, not executed
	Elapsed  time.Duration // zero for memoized jobs
}

// MemoStats reports the engine's reuse counters.
type MemoStats struct {
	// Hits counts jobs answered from the memo table (including jobs that
	// waited for an identical in-flight execution).
	Hits uint64
	// Misses counts unique executions.
	Misses uint64
}

// Engine runs jobs on a bounded worker pool with memoization.
type Engine struct {
	workers  int
	timeout  time.Duration
	progress func(JobResult)

	mu     sync.Mutex
	memo   map[string]*memoEntry
	hits   uint64
	misses uint64
	ckpt   CheckpointStore // warm-state checkpoints for sampled runs (nil = none)
	sample SampleStats
	traces map[traceKey]*sharedTrace // oracle traces queued or running jobs read
}

// memoEntry is one key's execution. done is closed once it completes;
// res and err are written before the close and read only after it.
type memoEntry struct {
	done chan struct{}
	res  Result
	err  error
}

// New returns an engine with the given worker count (<= 0 = GOMAXPROCS).
func New(workers int) *Engine {
	return &Engine{workers: workers, memo: make(map[string]*memoEntry),
		traces: make(map[traceKey]*sharedTrace)}
}

// SetTimeout bounds each job's wall-clock execution (0 = none). A timed-out
// job reports an error; its abandoned simulation goroutine still terminates
// on its own MaxCycles bound.
func (e *Engine) SetTimeout(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.timeout = d
}

// SetProgress installs a default progress callback used by Run calls that
// pass nil. Like Run's own parameter, it fires once per job in job-index
// order.
func (e *Engine) SetProgress(fn func(JobResult)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.progress = fn
}

// Memo returns the engine's lifetime reuse counters.
func (e *Engine) Memo() MemoStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return MemoStats{Hits: e.hits, Misses: e.misses}
}

// Run executes jobs and returns one result per job, in job order. The
// optional progress callback is invoked once per job in job-index order
// (not completion order) from worker goroutines; it must not call back
// into the engine. Run executes the whole list even when jobs fail and
// returns the lowest-index error, so error reporting is deterministic too.
func (e *Engine) Run(jobs []Job, progress func(JobResult)) ([]JobResult, error) {
	return e.RunContext(context.Background(), jobs, progress)
}

// RunContext is Run with cancellation: once ctx is done, queued-but-unstarted
// jobs are not executed and report ctx's error instead. Jobs already
// executing run to completion (populating the memo for later identical
// requests), so a job waiting on an in-flight execution still gets its
// result. Results, progress ordering and the lowest-index-error contract
// are unchanged — cancelled jobs still occupy their slots and fire progress.
func (e *Engine) RunContext(ctx context.Context, jobs []Job, progress func(JobResult)) ([]JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(jobs)
	out := make([]JobResult, n)
	if n == 0 {
		return out, nil
	}
	// Request tracing rides the context: one span per job (worker, memo
	// outcome, core reuse), recorded entirely outside the timing core.
	// With no trace on ctx, tr is nil and every hook below is a plain nil
	// check — the benchmark path allocates nothing extra.
	tr := trace.FromContext(ctx)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if progress == nil {
		e.mu.Lock()
		progress = e.progress
		e.mu.Unlock()
	}

	// Every job pins the oracle traces it will read before any starts, so
	// a trace keeps its first records until its last reader has attached.
	pins := make([]*jobTraces, n)
	for i, j := range jobs {
		pins[i] = e.pinTraces(j)
	}

	var (
		wg     sync.WaitGroup
		cursor atomic.Int64 // next job index to hand out
		emitMu sync.Mutex
		ready  = make([]bool, n)
		next   int
	)
	emit := func(idx int) {
		emitMu.Lock()
		defer emitMu.Unlock()
		ready[idx] = true
		for next < n && ready[next] {
			if progress != nil {
				progress(out[next])
			}
			next++
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			// Each worker owns one reusable simulator for the run, taken
			// from the process's idle cores and handed back when the run
			// ends: cores are Reset between jobs instead of constructed
			// per job (see pipeline.Core.Reset).
			rn := &runner{core: takeCore()}
			defer func() { putCore(rn.core) }()
			for {
				idx := int(cursor.Add(1)) - 1
				if idx >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Cancelled before this job started: report without
					// executing. The loop keeps draining so every slot is
					// filled and emitted in order.
					if tr != nil {
						sp := jobSpan(tr, idx, self, jobs[idx])
						sp.SetAttr("outcome", "cancelled")
						sp.End()
					}
					pins[idx].done()
					out[idx] = JobResult{Index: idx, Job: jobs[idx], Err: err}
					emit(idx)
					continue
				}
				e.execute(tr, self, idx, jobs[idx], pins[idx], out, emit, rn)
			}
		}(w)
	}
	wg.Wait()

	for i := range out {
		if out[i].Err != nil {
			return out, fmt.Errorf("engine: job %d (%s/%s on %s): %w",
				i, out[i].Job.Study, out[i].Job.Config.Name, out[i].Job.Bench, out[i].Err)
		}
	}
	return out, nil
}

// jobSpan opens one job's trace span with its index and the worker that
// ran it. Called only when a trace is present, so the formatting never
// runs on untraced sweeps.
func jobSpan(tr *trace.Trace, idx, worker int, j Job) trace.Span {
	sp := tr.Start("engine_job")
	sp.SetAttr("index", strconv.Itoa(idx))
	sp.SetAttr("config", j.Config.Name)
	sp.SetAttr("bench", j.Bench)
	sp.SetAttr("worker", strconv.Itoa(worker))
	return sp
}

// execute runs one job through the memo table, storing its result in
// out[idx] and emitting it. A job identical to an execution already in
// flight — in this Run or a concurrent one — waits for that execution to
// finish and takes its result. jt holds the job's trace pins; the job's
// execution gives them up, or execute does when nothing executes.
func (e *Engine) execute(tr *trace.Trace, worker, idx int, j Job, jt *jobTraces,
	out []JobResult, emit func(int), rn *runner) {
	var sp trace.Span
	if tr != nil {
		sp = jobSpan(tr, idx, worker, j)
	}
	if j.Config.TraceCommit != nil {
		// Traced runs exist for their side effects; a memo hit would
		// silently skip the per-instruction callbacks. Always execute.
		sp.SetAttr("memo", "bypass")
		start := time.Now()
		res, err := e.runWithTimeout(j, jt, rn)
		out[idx] = JobResult{Index: idx, Job: j, Result: res, Err: err,
			Elapsed: time.Since(start)}
		emit(idx)
		sp.End()
		return
	}

	key := SampledFingerprint(j.Config, j.Bench, j.Insts, j.Sample)
	e.mu.Lock()
	ent, ok := e.memo[key]
	if ok {
		e.hits++
		e.mu.Unlock()
		jt.done()
		select {
		case <-ent.done:
			sp.SetAttr("memo", "hit")
		default:
			// The span stays open through the wait, so its duration is
			// the time the job spent waiting on the execution.
			sp.SetAttr("memo", "waiter")
			<-ent.done
		}
		res := ent.res
		res.Config = j.Config.Name // keep the job's own label on shared results
		out[idx] = JobResult{Index: idx, Job: j, Result: res, Err: ent.err, Memoized: true}
		emit(idx)
		sp.End()
		return
	}
	ent = &memoEntry{done: make(chan struct{})}
	e.memo[key] = ent
	e.misses++
	e.mu.Unlock()

	if tr != nil {
		sp.SetAttr("memo", "miss")
		if rn.core != nil {
			sp.SetAttr("core", "reset")
		} else {
			sp.SetAttr("core", "fresh")
		}
	}
	start := time.Now()
	res, err := e.runWithTimeout(j, jt, rn)
	ent.res, ent.err = res, err
	if err != nil {
		// Failures (including timeouts) are not cached: a later identical
		// job must get a fresh attempt, not the stale error. Jobs already
		// waiting on this execution still observe its error.
		e.mu.Lock()
		delete(e.memo, key)
		e.mu.Unlock()
		sp.SetAttr("error", err.Error())
	}
	close(ent.done)
	out[idx] = JobResult{Index: idx, Job: j, Result: res, Err: err,
		Elapsed: time.Since(start)}
	emit(idx)
	sp.End()
}

// runJob dispatches one job to the exact or sampled leaf executor and
// then gives up the job's remaining trace pins.
func (e *Engine) runJob(core *pipeline.Core, j Job, jt *jobTraces) (Result, *pipeline.Core, error) {
	defer jt.done()
	if j.Sample.Enabled() {
		return e.runSampledOn(core, j.Config, j.Bench, j.Insts, j.Sample, jt)
	}
	return runOn(core, j.Config, j.Bench, j.Insts, jt)
}

// idleCores is the process-wide pool of simulators no run is using. A core
// outlives the engine run that built it: the next run — of this engine or
// of any other, such as svwd's per-batch engines or a study's fresh engine
// — resets it instead of building one, keeping its substrates, rings and
// arenas. A core abandoned by a timed-out job never returns. The pool
// keeps at most GOMAXPROCS cores; a core returned past that is dropped.
// It is not a sync.Pool: that one empties across garbage collections, and
// its Get can miss a core another goroutine left in its own P's slot, so a
// study's next engine would often build its cores again.
var idleCores struct {
	sync.Mutex
	cores []*pipeline.Core
}

// takeCore returns an idle core, or nil when there is none.
func takeCore() *pipeline.Core {
	idleCores.Lock()
	defer idleCores.Unlock()
	n := len(idleCores.cores)
	if n == 0 {
		return nil
	}
	c := idleCores.cores[n-1]
	idleCores.cores[n-1] = nil
	idleCores.cores = idleCores.cores[:n-1]
	return c
}

// putCore returns a core to the idle pool. nil is ignored.
func putCore(c *pipeline.Core) {
	if c == nil {
		return
	}
	idleCores.Lock()
	defer idleCores.Unlock()
	if len(idleCores.cores) < runtime.GOMAXPROCS(0) {
		idleCores.cores = append(idleCores.cores, c)
	}
}

// runner is one worker's reusable simulator slot. It is owned by exactly
// one worker goroutine; the timeout path hands its core to the run
// goroutine and only takes it back through the result channel, so an
// abandoned (timed-out) run keeps its core and the runner starts fresh.
type runner struct {
	core *pipeline.Core
}

func (e *Engine) runWithTimeout(j Job, jt *jobTraces, rn *runner) (Result, error) {
	e.mu.Lock()
	timeout := e.timeout
	e.mu.Unlock()
	if timeout <= 0 {
		res, core, err := e.runJob(rn.core, j, jt)
		rn.core = core
		return res, err
	}
	type outcome struct {
		res  Result
		core *pipeline.Core
		err  error
	}
	core := rn.core
	rn.core = nil
	ch := make(chan outcome, 1)
	go func() {
		res, c, err := e.runJob(core, j, jt)
		ch <- outcome{res, c, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		rn.core = o.core
		return o.res, o.err
	case <-timer.C:
		// The abandoned goroutine still terminates on the configuration's
		// own MaxCycles bound; its core is lost with it and never reaches
		// the idle pool, and it gives up its trace pins when it ends.
		return Result{}, fmt.Errorf("%s on %s: timed out after %v",
			j.Bench, j.Config.Name, timeout)
	}
}
