package engine

// Sampled execution: alternate functional fast-forward with short detailed
// windows and scale the measured counters to a full-run estimate. The
// fast-forward prefix of every window depends only on (bench, skip-count),
// so it is checkpointed into the result store — one fast-forward serves an
// entire configuration ladder locally, and peers serve it over the store's
// GET /v1/store/{key} read path instead of re-emulating.

import (
	"fmt"

	"svwsim/internal/emu"
	"svwsim/internal/pipeline"
	"svwsim/internal/store"
	"svwsim/internal/workload"
)

// CheckpointStore is the minimal store view the sampling engine needs:
// probe a key, persist a new entry. internal/store satisfies it through
// StoreCheckpoints; the server layers a peer-read fallback on top.
type CheckpointStore interface {
	// GetCheckpoint returns the raw checkpoint payload under key, if any.
	GetCheckpoint(key string) ([]byte, bool)
	// PutCheckpoint persists a checkpoint payload.
	PutCheckpoint(key string, val []byte)
}

// SampleStats reports the engine's sampling counters: how much functional
// fast-forward work ran, and how often checkpoints spared it.
type SampleStats struct {
	// FastForwards counts fast-forward legs actually emulated.
	FastForwards uint64
	// FastForwardInsts counts instructions those legs executed.
	FastForwardInsts uint64
	// CheckpointHits counts fast-forward legs answered by a stored
	// checkpoint instead of emulation.
	CheckpointHits uint64
	// CheckpointMisses counts store probes that found nothing (or a corrupt
	// entry) and fell back to emulation.
	CheckpointMisses uint64
	// CheckpointPuts counts checkpoints persisted.
	CheckpointPuts uint64
}

// SetCheckpointStore installs the store consulted for warm-state
// checkpoints during sampled runs (nil = none; every fast-forward
// emulates). Safe to call concurrently with Run.
func (e *Engine) SetCheckpointStore(cs CheckpointStore) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ckpt = cs
}

// Sample returns the engine's lifetime sampling counters.
func (e *Engine) Sample() SampleStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sample
}

// storeCheckpoints adapts a *store.Store. Hits are accounted (a served
// checkpoint is served work, whichever tier held it); probes that miss are
// not, since a cold miss just means this skip point has not been emulated
// yet — it is not a rejected request.
type storeCheckpoints struct{ st *store.Store }

// StoreCheckpoints adapts st into the engine's CheckpointStore view.
func StoreCheckpoints(st *store.Store) CheckpointStore { return storeCheckpoints{st} }

func (s storeCheckpoints) GetCheckpoint(key string) ([]byte, bool) {
	val, origin := s.st.Get(key)
	if origin == store.OriginMiss {
		return nil, false
	}
	s.st.AccountGet(origin)
	return val, true
}

func (s storeCheckpoints) PutCheckpoint(key string, val []byte) { s.st.Put(key, val) }

// SampledFingerprint is the memo key for a possibly-sampled job. With an
// empty spec it is byte-identical to Fingerprint, so exact results keep
// their existing memo and store keys; an enabled spec appends a
// "|sample:w:d:p" suffix, so sampled results can never collide with exact
// ones (or with a different spec's).
func SampledFingerprint(cfg Config, bench string, insts uint64, spec pipeline.SampleSpec) string {
	key := Fingerprint(cfg, bench, insts)
	if spec.Enabled() {
		key += "|sample:" + spec.String()
	}
	return key
}

// runSampledOn executes one sampled job: detailed windows of
// spec.Warmup+spec.Detail commits every spec.Period instructions, the gaps
// covered functionally, counters scaled back to the full budget. Like
// runOn, core may be nil and the core in use is returned for reuse, and
// each window reads the job's shared trace of its path.
func (e *Engine) runSampledOn(core *pipeline.Core, cfg Config, bench string,
	maxInsts uint64, spec pipeline.SampleSpec, jt *jobTraces) (Result, *pipeline.Core, error) {
	fail := func(err error) (Result, *pipeline.Core, error) {
		return Result{}, core, fmt.Errorf("%s on %s: %w", bench, cfg.Name, err)
	}
	if err := spec.Validate(); err != nil {
		return fail(err)
	}
	p := workload.Cached(bench)
	total := maxInsts
	if total == 0 {
		total = cfg.MaxInsts
	}
	if total == 0 {
		return fail(fmt.Errorf("sample: no instruction budget"))
	}
	e.mu.Lock()
	ckpt := e.ckpt
	e.mu.Unlock()

	wcfg := cfg
	wcfg.WarmupInsts = spec.Warmup

	var (
		sum      pipeline.Stats
		cur      emu.ArchState // state at skip committed insts (valid when skip > 0)
		skip     uint64
		spanned  uint64 // instructions the measurement represents
		measured uint64 // detail-window commits actually measured
	)
	for skip < total {
		window := spec.Warmup + spec.Detail
		if rem := total - skip; window > rem {
			window = rem
		}
		wcfg.MaxInsts = window
		var from *emu.ArchState // the program's entry for the first window
		if skip > 0 {
			from = &cur
			// The cycle counter continues across windows (ResetWindow), so
			// the deadlock detector gets a fresh allowance per window.
			if cfg.MaxCycles > 0 {
				wcfg.MaxCycles = cfg.MaxCycles + core.Cycle()
			}
		}
		core = jt.bind(core, wcfg, p, bench, skip, from)
		if err := core.Run(); err != nil {
			return fail(err)
		}
		ws := *core.Stats()
		measured += ws.Committed
		sum.Add(&ws)
		if committed := core.CommittedTotal(); committed < window {
			// The program halted inside the window: the measurement covers
			// everything that exists past this skip point.
			spanned += committed
			break
		}

		period := spec.Period
		if rem := total - skip; period > rem {
			period = rem
		}
		if skip+period >= total {
			spanned += period
			break
		}
		next := skip + period

		// Advance the functional state to the next skip point: a stored
		// checkpoint spares the whole leg, otherwise emulate it (from the
		// current state — the window above read, never advanced, it) and
		// persist the result for the rest of the ladder and the fabric.
		key := CheckpointKey(bench, next)
		restored := false
		if ckpt != nil {
			if raw, ok := ckpt.GetCheckpoint(key); ok {
				if st, err := decodeCheckpoint(raw, p, next); err == nil {
					cur, restored = st, true
					e.mu.Lock()
					e.sample.CheckpointHits++
					e.mu.Unlock()
				}
			}
			if !restored {
				e.mu.Lock()
				e.sample.CheckpointMisses++
				e.mu.Unlock()
			}
		}
		if !restored {
			m := emu.New(p.NewImage(), p.Entry)
			m.SetDecodeTable(p.Base, p.Decoded())
			if skip > 0 {
				m.Restore(cur)
			}
			executed, err := m.FastForward(period)
			if err != nil {
				return fail(err)
			}
			e.mu.Lock()
			e.sample.FastForwards++
			e.sample.FastForwardInsts += executed
			e.mu.Unlock()
			cur = m.State()
			if executed < period {
				// Halted during the gap: the instructions up to the halt are
				// represented by this window's measurement; nothing follows.
				spanned += executed
				break
			}
			if ckpt != nil {
				ckpt.PutCheckpoint(key, encodeCheckpoint(cur, p))
				e.mu.Lock()
				e.sample.CheckpointPuts++
				e.mu.Unlock()
			}
		}
		spanned += period
		skip = next
	}

	if measured > 0 {
		sum.Scale(spanned, measured)
	}
	return Result{Bench: bench, Config: cfg.Name, Stats: sum}, core, nil
}
