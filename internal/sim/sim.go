// Package sim orchestrates experiments: it owns the paper's configuration
// matrix (baselines and optimization variants for the NLQ, SSQ and RLE
// studies, §4.1–§4.4), runs kernels on machines, and computes the derived
// quantities the figures report (re-execution rates, baseline-relative
// speedups).
package sim

import (
	"svwsim/internal/core"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
)

// SVWMode selects the filter variant of a figure's config family.
type SVWMode int

// The per-figure configuration ladder.
const (
	// SVWOff: the bare optimization; every marked load re-executes.
	SVWOff SVWMode = iota
	// SVWNoUpd: SVW without the update-on-store-forward extension (−UPD).
	SVWNoUpd
	// SVWUpd: SVW with forwarding updates (+UPD), the paper's full design.
	SVWUpd
	// Perfect: ideal re-execution (+PERFECT upper bound); SVW is moot.
	Perfect
)

func (m SVWMode) String() string {
	switch m {
	case SVWOff:
		return "raw"
	case SVWNoUpd:
		return "+SVW-UPD"
	case SVWUpd:
		return "+SVW+UPD"
	case Perfect:
		return "+PERFECT"
	}
	return "?"
}

func applySVW(c *pipeline.Config, m SVWMode) {
	switch m {
	case SVWOff:
		c.Rex = pipeline.RexReal
		c.SVW.Enabled = false
	case SVWNoUpd:
		c.Rex = pipeline.RexReal
		c.SVW.Enabled = true
		c.SVW.UpdateOnForward = false
	case SVWUpd:
		c.Rex = pipeline.RexReal
		c.SVW.Enabled = true
		c.SVW.UpdateOnForward = true
	case Perfect:
		c.Rex = pipeline.RexPerfect
		c.SVW.Enabled = false
	}
}

// BaselineNLQ returns the NLQ study's baseline (§4.1): the 8-wide machine
// with a 128-entry associative LQ whose single port limits store issue to
// one per cycle.
func BaselineNLQ() pipeline.Config {
	c := pipeline.Wide8Config()
	c.Name = "base-nlq"
	return c
}

// NLQ returns the non-associative-LQ machine: no LQ search, two stores
// issued per cycle, marked loads re-execute.
func NLQ(m SVWMode) pipeline.Config {
	c := pipeline.Wide8Config()
	c.Name = "nlq" + m.String()
	c.LSU = pipeline.LSUNLQ
	c.LQSearch = false
	c.StoreIssue = 2
	applySVW(&c, m)
	return c
}

// BaselineSSQ returns the SSQ study's baseline (§4.2): the 8-wide machine
// with a 64-entry two-ported associative SQ that stretches loads to 4
// cycles.
func BaselineSSQ() pipeline.Config {
	c := pipeline.Wide8Config()
	c.Name = "base-ssq"
	c.LoadLat = 4
	return c
}

// SSQ returns the speculative-SQ machine: 16-entry single-ported FSQ,
// non-associative RSQ, per-bank best-effort forwarding buffers, 2-cycle
// loads, and (without SVW) re-execution of every load.
func SSQ(m SVWMode) pipeline.Config {
	c := pipeline.Wide8Config()
	c.Name = "ssq" + m.String()
	c.LSU = pipeline.LSUSSQ
	c.LoadLat = 2
	applySVW(&c, m)
	return c
}

// BaselineRLE returns the RLE study's baseline (§4.3): the 4-wide machine
// with no elimination.
func BaselineRLE() pipeline.Config {
	c := pipeline.Narrow4Config()
	c.Name = "base-rle"
	return c
}

// RLEMode extends the ladder for Fig. 7's fourth configuration.
type RLEMode int

// RLE study configurations.
const (
	RLERaw     RLEMode = iota // RLE, full re-execution of eliminated loads
	RLESVW                    // +SVW
	RLESVWNoSQ                // +SVW−SQU: squash reuse disabled
	RLEPerfect                // +PERFECT
)

func (m RLEMode) String() string {
	switch m {
	case RLERaw:
		return "raw"
	case RLESVW:
		return "+SVW"
	case RLESVWNoSQ:
		return "+SVW-SQU"
	case RLEPerfect:
		return "+PERFECT"
	}
	return "?"
}

// RLE returns the register-integration machine (4-wide, 512-entry 2-way IT,
// 4-stage re-execution extension).
func RLE(m RLEMode) pipeline.Config {
	c := pipeline.Narrow4Config()
	c.Name = "rle" + m.String()
	c.RLE.Enabled = true
	switch m {
	case RLERaw:
		c.Rex = pipeline.RexReal
		c.SVW.Enabled = false
	case RLESVW:
		c.Rex = pipeline.RexReal
		c.SVW.Enabled = true
		c.SVW.UpdateOnForward = true
	case RLESVWNoSQ:
		c.Rex = pipeline.RexReal
		c.SVW.Enabled = true
		c.SVW.UpdateOnForward = true
		c.RLE.SquashReuse = false
	case RLEPerfect:
		c.Rex = pipeline.RexPerfect
		c.SVW.Enabled = false
	}
	return c
}

// Result is one (benchmark, config) run; it is the engine's result type.
type Result = engine.Result

// Speedup returns the percent IPC improvement of opt over base.
func Speedup(base, opt *Result) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return (opt.IPC()/b - 1) * 100
}

// DefaultSSBF returns the paper's default 512-entry 8-byte-granule filter.
func DefaultSSBF() core.SSBFConfig { return core.DefaultSSBFConfig() }
