package engine

// Shared oracle traces. The timing core has no wrong-path fetch, so every
// configuration run over one program from one start point reads the same
// committed path: an exact job from the program's entry, a sampled job's
// window from its skip point (a function of the benchmark and the skip
// count alone, like a checkpoint). The engine records each such path once,
// as an emu.Trace, and binds every job that reads it to that trace.
//
// A trace lives while a queued or running job needs it. When a Run starts,
// each of its jobs pins every trace it will read; a job gives a pin up once
// its core has attached to that trace, or when it finishes without reading
// it (a memo hit, a cancellation, a program that halted early). While a pin
// is held the trace keeps its first record for the jobs still to come; once
// none is held, it drops its chunks behind its slowest reader, so a job
// that shares its trace with no other holds only its in-flight window.
//
// A job that times out keeps its pins and its place among the readers
// until its abandoned run ends, so the trace never drops, and never
// reuses, a chunk that run may still read.

import (
	"svwsim/internal/emu"
	"svwsim/internal/pipeline"
	"svwsim/internal/prog"
)

// traceKey names a committed path: a benchmark's program from a skip point.
type traceKey struct {
	bench string
	skip  uint64
}

// sharedTrace is one path's trace and the pins of the jobs still to open
// it. The entry leaves the engine's table when its last pin goes.
type sharedTrace struct {
	tr   *emu.Trace // nil until the first job opens it
	pins int
}

// traceKeys lists the paths j reads, in the order it opens them: an exact
// job's one path from the entry, or a sampled job's window at every skip
// point (see runSampledOn). A job that will fail before reading any reads
// none.
func traceKeys(j Job) []traceKey {
	if !j.Sample.Enabled() {
		return []traceKey{{j.Bench, 0}}
	}
	total := j.Insts
	if total == 0 {
		total = j.Config.MaxInsts
	}
	if j.Sample.Validate() != nil {
		return nil
	}
	var keys []traceKey
	for skip := uint64(0); skip < total; skip += j.Sample.Period {
		keys = append(keys, traceKey{j.Bench, skip})
	}
	return keys
}

// jobTraces is one job's pins, in the order the job opens its paths. It is
// used by one goroutine at a time: the worker, or the run goroutine the
// worker hands the job to.
type jobTraces struct {
	e    *Engine
	keys []traceKey
	next int // keys[next:] are still pinned
}

// pinTraces pins every path j reads.
func (e *Engine) pinTraces(j Job) *jobTraces {
	jt := &jobTraces{e: e, keys: traceKeys(j)}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range jt.keys {
		ent := e.traces[k]
		if ent == nil {
			ent = &sharedTrace{}
			e.traces[k] = ent
		}
		ent.pins++
		if ent.tr != nil {
			ent.tr.Pin(1)
		}
	}
	return jt
}

// bind resets core (nil: a new one) for the run of bench's program p from
// st (nil: the program's entry), which starts at skip committed
// instructions, and returns it. The run reads the engine's shared trace of
// that path when the job pinned it, else the core's private trace.
func (jt *jobTraces) bind(core *pipeline.Core, cfg Config, p *prog.Program, bench string,
	skip uint64, st *emu.ArchState) *pipeline.Core {
	if core == nil {
		core = new(pipeline.Core)
	}
	k := traceKey{bench, skip}
	if jt == nil || jt.next >= len(jt.keys) || jt.keys[jt.next] != k {
		if st == nil {
			core.Reset(cfg, p)
		} else {
			core.ResetWindow(cfg, p, *st)
		}
		return core
	}
	core.ResetOn(cfg, p, jt.e.openTrace(k, p, st), st)
	jt.next++
	jt.e.unpin(k)
	return core
}

// done gives up the pins of the paths the job did not open.
func (jt *jobTraces) done() {
	for _, k := range jt.keys[jt.next:] {
		jt.e.unpin(k)
	}
	jt.next = len(jt.keys)
}

// openTrace returns k's trace, recording from st (nil: the entry of p) if
// no job has opened it yet. The caller holds a pin on k.
func (e *Engine) openTrace(k traceKey, p *prog.Program, st *emu.ArchState) *emu.Trace {
	e.mu.Lock()
	ent := e.traces[k]
	tr := ent.tr
	e.mu.Unlock()
	if tr != nil {
		return tr
	}
	// Build outside the lock: restoring a snapshot copies its pages.
	fresh := pipeline.NewTrace(p, st)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent.tr == nil {
		ent.tr = fresh
		fresh.Pin(ent.pins)
	}
	return ent.tr
}

// unpin drops one pin on k.
func (e *Engine) unpin(k traceKey) {
	e.mu.Lock()
	ent := e.traces[k]
	ent.pins--
	if ent.pins == 0 {
		delete(e.traces, k)
	}
	tr := ent.tr
	e.mu.Unlock()
	if tr != nil {
		tr.Unpin()
	}
}
