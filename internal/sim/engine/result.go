package engine

import (
	"fmt"

	"svwsim/internal/pipeline"
	"svwsim/internal/workload"
)

// Config is the machine configuration a job runs; it is the pipeline
// package's Config (the engine adds no fields of its own).
type Config = pipeline.Config

// Result is one (benchmark, configuration) run.
type Result struct {
	Bench  string
	Config string
	Stats  pipeline.Stats
}

// IPC is shorthand for the run's instructions per cycle.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// Run executes the named benchmark on cfg for maxInsts committed
// instructions (0 keeps the config's own limit). It is the engine's leaf
// executor and may be called directly for one-off runs; only Engine.Run
// memoizes.
func Run(cfg Config, bench string, maxInsts uint64) (Result, error) {
	res, _, err := runOn(nil, cfg, bench, maxInsts, nil)
	return res, err
}

// runOn executes one job on a reusable simulator. core may be nil (a fresh
// one is built); the simulator actually used is returned so the caller can
// keep it for the next job — pipeline.Core.Reset guarantees a reused core
// is observationally identical to a fresh one. The benchmark program comes
// from the process-wide build cache, and the oracle records from the job's
// shared trace (jt nil: the core's private one).
func runOn(core *pipeline.Core, cfg Config, bench string, maxInsts uint64, jt *jobTraces) (Result, *pipeline.Core, error) {
	p := workload.Cached(bench)
	if maxInsts > 0 {
		cfg.MaxInsts = maxInsts
		if cfg.WarmupInsts >= maxInsts/2 {
			cfg.WarmupInsts = maxInsts / 5
		}
	}
	core = jt.bind(core, cfg, p, bench, 0, nil)
	if err := core.Run(); err != nil {
		return Result{}, core, fmt.Errorf("%s on %s: %w", bench, cfg.Name, err)
	}
	return Result{Bench: bench, Config: cfg.Name, Stats: *core.Stats()}, core, nil
}
