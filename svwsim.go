// Package svwsim is a from-scratch Go reproduction of Amir Roth's "Store
// Vulnerability Window (SVW): Re-Execution Filtering for Enhanced Load
// Optimization" (ISCA 2005): a cycle-level dynamically-scheduled superscalar
// simulator with the paper's three load optimizations — the non-associative
// load queue (NLQ), the speculative store queue (SSQ), and redundant load
// elimination (RLE) — and the SVW mechanism that filters their load
// re-executions.
//
// The package is a facade over the internal simulator. A run is described by
// a benchmark name (one of sixteen synthetic kernels standing in for the
// SPEC2000 integer suite) and an Options value selecting the machine:
//
//	res, err := svwsim.Run("vortex", svwsim.Options{
//		Opt: svwsim.OptSSQ,
//		SVW: true,
//		SVWUpdateOnForward: true,
//	})
//	fmt.Printf("IPC %.2f, re-executed %.1f%% of loads\n",
//		res.IPC, 100*res.RexRate)
//
// # The experiment engine
//
// Sweeps — ladders of configurations over benchmark sets — run on the
// engine in internal/sim/engine. Its contract, which both CLIs expose
// through the -j, -timeout and -json flags:
//
//   - Parallelism: -j workers (0 = GOMAXPROCS) take jobs in job order from
//     one shared queue, each claiming the next job as soon as it finishes
//     one, so slow configurations cannot strand queued work.
//   - Memoization: jobs are keyed by (configuration, benchmark, instruction
//     budget) with display names ignored; semantically identical jobs —
//     ladder baselines repeated across studies, the summary study's
//     re-sweep of Figs. 5–7 under svwexp -all — execute exactly once per
//     engine and are served from its memo thereafter.
//   - Determinism: results are delivered in job order and progress fires in
//     job-index order, never completion order, so -j 1 and -j N produce
//     byte-identical tables and JSON. The determinism and race tests in
//     internal/sim enforce this.
//
// The cmd/svwexp tool regenerates every figure of the paper's evaluation;
// see EXPERIMENTS.md for the measured results.
package svwsim

import (
	"fmt"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// Opt selects the load optimization under study.
type Opt int

// Load optimizations (paper §2).
const (
	// OptNone is the study baseline for the 8-wide machine.
	OptNone Opt = iota
	// OptNLQ replaces load queue search with pre-commit re-execution
	// (§2.2), doubling store issue bandwidth.
	OptNLQ
	// OptSSQ splits the store queue into a small forwarding queue and a
	// large non-associative retirement queue (§2.3); every load re-executes.
	OptSSQ
	// OptRLE eliminates redundant loads through register integration
	// (§2.4) on the 4-wide machine; eliminated loads re-execute.
	OptRLE
	// OptRLEBase is the study baseline for the 4-wide machine.
	OptRLEBase
	// OptSSQBase is the SSQ study's baseline: the 8-wide machine with the
	// big associative SQ that stretches loads to 4 cycles (§4.2).
	OptSSQBase
)

func (o Opt) String() string {
	switch o {
	case OptNone:
		return "baseline"
	case OptNLQ:
		return "nlq"
	case OptSSQ:
		return "ssq"
	case OptRLE:
		return "rle"
	case OptRLEBase:
		return "rle-baseline"
	case OptSSQBase:
		return "ssq-baseline"
	}
	return "?"
}

// Options selects the machine configuration for a run.
type Options struct {
	// Opt is the load optimization (default OptNone).
	Opt Opt
	// SVW enables the store vulnerability window re-execution filter.
	SVW bool
	// SVWUpdateOnForward raises a load's SVW to its forwarding store's SSN
	// (the paper's +UPD refinement).
	SVWUpdateOnForward bool
	// PerfectRex models ideal (zero-latency, infinite-bandwidth)
	// re-execution — the paper's +PERFECT upper bound. Overrides SVW.
	PerfectRex bool
	// DisableSquashReuse turns off integration through squash-marked IT
	// entries (the paper's SVW−SQU point; OptRLE only).
	DisableSquashReuse bool
	// SSNBits overrides the hardware SSN width (default 16; 0 keeps 16,
	// pass a negative value for infinite).
	SSNBits int
	// SSBFEntries overrides the SSBF size (default 512).
	SSBFEntries int
	// SSBFGranuleBytes overrides the conflict granularity (default 8).
	SSBFGranuleBytes int
	// MaxInsts bounds the simulation (default 300k including 50k warm-up).
	MaxInsts uint64
}

// Result summarizes one run.
type Result struct {
	Bench  string
	Config string

	IPC        float64
	Cycles     uint64
	Committed  uint64
	Loads      uint64
	Stores     uint64
	MarkedRate float64 // marked loads / committed loads
	RexRate    float64 // re-executed loads / committed loads
	FilterRate float64 // SVW-filtered share of marked loads
	ElimRate   float64 // eliminated loads / committed loads (RLE)
	RexFails   uint64
	WrapDrains uint64

	// Raw exposes every counter for callers that need more.
	Raw pipeline.Stats
}

// Benchmarks lists the sixteen kernel names, alphabetically.
func Benchmarks() []string { return workload.Names() }

// buildConfig translates Options into an internal machine configuration.
func buildConfig(o Options) (pipeline.Config, error) {
	var cfg pipeline.Config
	mode := sim.SVWOff
	switch {
	case o.PerfectRex:
		mode = sim.Perfect
	case o.SVW && o.SVWUpdateOnForward:
		mode = sim.SVWUpd
	case o.SVW:
		mode = sim.SVWNoUpd
	}
	switch o.Opt {
	case OptNone:
		cfg = sim.BaselineNLQ()
	case OptNLQ:
		cfg = sim.NLQ(mode)
	case OptSSQ:
		cfg = sim.SSQ(mode)
	case OptSSQBase:
		cfg = sim.BaselineSSQ()
	case OptRLEBase:
		cfg = sim.BaselineRLE()
	case OptRLE:
		switch {
		case o.PerfectRex:
			cfg = sim.RLE(sim.RLEPerfect)
		case o.SVW && o.DisableSquashReuse:
			cfg = sim.RLE(sim.RLESVWNoSQ)
		case o.SVW:
			cfg = sim.RLE(sim.RLESVW)
		default:
			cfg = sim.RLE(sim.RLERaw)
		}
	default:
		return cfg, fmt.Errorf("svwsim: unknown optimization %d", o.Opt)
	}
	if o.SSNBits > 0 {
		cfg.SVW.SSNBits = o.SSNBits
	} else if o.SSNBits < 0 {
		cfg.SVW.SSNBits = 0 // infinite
	}
	if o.SSBFEntries > 0 {
		cfg.SVW.SSBF.Entries = o.SSBFEntries
	}
	if o.SSBFGranuleBytes > 0 {
		cfg.SVW.SSBF.GranuleBytes = o.SSBFGranuleBytes
	}
	return cfg, nil
}

// Run simulates one benchmark under the given options.
func Run(bench string, o Options) (Result, error) {
	if _, ok := workload.Get(bench); !ok {
		return Result{}, fmt.Errorf("svwsim: unknown benchmark %q (see Benchmarks())", bench)
	}
	cfg, err := buildConfig(o)
	if err != nil {
		return Result{}, err
	}
	r, err := engine.Run(cfg, bench, o.MaxInsts)
	if err != nil {
		return Result{}, err
	}
	s := r.Stats
	return Result{
		Bench:      r.Bench,
		Config:     r.Config,
		IPC:        s.IPC(),
		Cycles:     s.Cycles,
		Committed:  s.Committed,
		Loads:      s.CommittedLoads,
		Stores:     s.CommittedStores,
		MarkedRate: s.MarkedRate(),
		RexRate:    s.RexRate(),
		FilterRate: s.FilterEffectiveness(),
		ElimRate:   s.ElimRate(),
		RexFails:   s.RexFailures,
		WrapDrains: s.WrapDrains,
		Raw:        s,
	}, nil
}

// Speedup returns the percent IPC improvement of b over a.
func Speedup(a, b Result) float64 {
	if a.IPC == 0 {
		return 0
	}
	return (b.IPC/a.IPC - 1) * 100
}
