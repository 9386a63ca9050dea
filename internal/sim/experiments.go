package sim

import (
	"context"
	"fmt"
	"io"

	"svwsim/internal/core"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// Study is one experiment of the paper's evaluation as data: the engine
// jobs it needs, in order, and the reduction of their results (in the same
// order) into its report. Run executes a study on an engine; svwd resolves
// the same jobs as ordinary store cells and reduces the decoded cell
// results, so a study shares cells with every sweep, peer and other study
// that names the same machine.
type Study[R any] struct {
	Jobs   []engine.Job
	Reduce func([]Result) R
}

// Report is what the paper's studies reduce to: a table (svwexp) and an
// indented JSON document (svwexp -json and svwd's /v1/studies), both
// rendered by the report itself so the two binaries cannot drift apart.
type Report interface {
	Print(w io.Writer)
	WriteJSON(w io.Writer) error
}

// Run executes s on eng and reduces its results. Queued-but-unstarted jobs
// are skipped once ctx is done (see engine.RunContext).
func Run[R any](ctx context.Context, eng *engine.Engine, s Study[R]) (R, error) {
	rs, err := eng.RunContext(ctx, s.Jobs, nil)
	if err != nil {
		var zero R
		return zero, err
	}
	out := make([]Result, len(rs))
	for i := range rs {
		out[i] = rs[i].Result
	}
	return s.Reduce(out), nil
}

// Reported erases a study's report type, for callers that pick the study
// at run time and only print or encode its report.
func Reported[R Report](s Study[R]) Study[Report] {
	return Study[Report]{Jobs: s.Jobs, Reduce: func(rs []Result) Report { return s.Reduce(rs) }}
}

// The five calls below are the study entry points perfbench drives.

// RunLaddersContext executes several ladders as one flat job list on eng,
// so configurations shared between ladders (and with any earlier sweep on
// the same engine) run exactly once. Results are returned per ladder.
func RunLaddersContext(ctx context.Context, eng *engine.Engine, ladders []Ladder, benches []string, insts uint64) ([]*LadderResult, error) {
	return Run(ctx, eng, LaddersStudy(ladders, benches, insts, pipeline.SampleSpec{}))
}

// RunLaddersSampled is RunLaddersContext with a sampling spec stamped on
// every job (zero spec = exact, identical to RunLaddersContext).
func RunLaddersSampled(ctx context.Context, eng *engine.Engine, ladders []Ladder, benches []string, insts uint64, spec pipeline.SampleSpec) ([]*LadderResult, error) {
	return Run(ctx, eng, LaddersStudy(ladders, benches, insts, spec))
}

// RunFig8Context runs the Fig. 8 study (exact) on eng.
func RunFig8Context(ctx context.Context, eng *engine.Engine, benches []string, insts uint64) (*Fig8Result, error) {
	return Run(ctx, eng, Fig8Study(benches, insts, pipeline.SampleSpec{}))
}

// RunSSNWidthContext runs the §3.6 SSN width study (exact) on eng.
func RunSSNWidthContext(ctx context.Context, eng *engine.Engine, benches []string, bits []int, insts uint64) (*SSNWidthResult, error) {
	return Run(ctx, eng, SSNWidthStudy(benches, bits, insts, pipeline.SampleSpec{}))
}

// RunSSBFUpdatePolicyContext runs the §3.6 SSBF update-policy study
// (exact) on eng.
func RunSSBFUpdatePolicyContext(ctx context.Context, eng *engine.Engine, benches []string, insts uint64) (*SSBFUpdateResult, error) {
	return Run(ctx, eng, SSBFUpdateStudy(benches, insts, pipeline.SampleSpec{}))
}

// job builds one study cell. A zero spec keeps the job exact, so exact
// studies keep byte-identical jobs and memo keys.
func job(study, label string, cfg pipeline.Config, bench string, insts uint64, spec pipeline.SampleSpec) engine.Job {
	return engine.Job{Study: study, Label: label, Config: cfg, Bench: bench, Insts: insts, Sample: spec}
}

// --- Figs. 5–7: the configuration ladders --------------------------------

// Ladder is one figure's configuration family: a baseline plus the variants
// whose re-execution rates and baseline-relative speedups the figure plots.
type Ladder struct {
	Name     string
	Baseline pipeline.Config
	Configs  []pipeline.Config
	Labels   []string
}

// Fig5Ladder returns the NLQls study (paper Fig. 5).
func Fig5Ladder() Ladder {
	return Ladder{
		Name:     "fig5-nlq",
		Baseline: BaselineNLQ(),
		Configs: []pipeline.Config{
			NLQ(SVWOff), NLQ(SVWNoUpd), NLQ(SVWUpd), NLQ(Perfect),
		},
		Labels: []string{"NLQ", "+SVW-UPD", "+SVW+UPD", "+PERFECT"},
	}
}

// Fig6Ladder returns the SSQ study (paper Fig. 6).
func Fig6Ladder() Ladder {
	return Ladder{
		Name:     "fig6-ssq",
		Baseline: BaselineSSQ(),
		Configs: []pipeline.Config{
			SSQ(SVWOff), SSQ(SVWNoUpd), SSQ(SVWUpd), SSQ(Perfect),
		},
		Labels: []string{"SSQ", "+SVW-UPD", "+SVW+UPD", "+PERFECT"},
	}
}

// Fig7Ladder returns the RLE study (paper Fig. 7).
func Fig7Ladder() Ladder {
	return Ladder{
		Name:     "fig7-rle",
		Baseline: BaselineRLE(),
		Configs: []pipeline.Config{
			RLE(RLERaw), RLE(RLESVW), RLE(RLESVWNoSQ), RLE(RLEPerfect),
		},
		Labels: []string{"RLE", "+SVW", "+SVW-SQU", "+PERFECT"},
	}
}

// LadderResult holds one ladder's runs: Base[b] is the baseline on benchmark
// b; Runs[c][b] is config c on benchmark b.
type LadderResult struct {
	Ladder  Ladder
	Benches []string
	Base    []Result
	Runs    [][]Result
}

// LaddersStudy flattens ladders over benchmarks into one job list: per
// ladder, for each benchmark, the baseline followed by every rung in
// declaration order. It reduces to one result per ladder, in order.
func LaddersStudy(ladders []Ladder, benches []string, insts uint64, spec pipeline.SampleSpec) Study[[]*LadderResult] {
	var jobs []engine.Job
	for _, l := range ladders {
		for _, bench := range benches {
			jobs = append(jobs, job(l.Name, "baseline", l.Baseline, bench, insts, spec))
			for ci, cfg := range l.Configs {
				jobs = append(jobs, job(l.Name, l.Labels[ci], cfg, bench, insts, spec))
			}
		}
	}
	return Study[[]*LadderResult]{Jobs: jobs, Reduce: func(rs []Result) []*LadderResult {
		out := make([]*LadderResult, len(ladders))
		k := 0
		for i, l := range ladders {
			res := &LadderResult{Ladder: l, Benches: benches, Base: make([]Result, len(benches)),
				Runs: make([][]Result, len(l.Configs))}
			for ci := range res.Runs {
				res.Runs[ci] = make([]Result, len(benches))
			}
			for bi := range benches {
				res.Base[bi] = rs[k]
				k++
				for ci := range l.Configs {
					res.Runs[ci][bi] = rs[k]
					k++
				}
			}
			out[i] = res
		}
		return out
	}}
}

// FigureStudy is paper Fig. 5, 6 or 7 as svwexp -fig N prints it and svwd's
// /v1/studies/ladder?fig=N serves it (see FigureReport).
func FigureStudy(fig int, benches []string, insts uint64, spec pipeline.SampleSpec) (Study[*FigureReport], error) {
	var l Ladder
	switch fig {
	case 5:
		l = Fig5Ladder()
	case 6:
		l = Fig6Ladder()
	case 7:
		l = Fig7Ladder()
	default:
		return Study[*FigureReport]{}, fmt.Errorf("no ladder for figure %d (want 5, 6 or 7)", fig)
	}
	s := LaddersStudy([]Ladder{l}, benches, insts, spec)
	return Study[*FigureReport]{Jobs: s.Jobs, Reduce: func(rs []Result) *FigureReport {
		return &FigureReport{LadderResult: s.Reduce(rs)[0], fig: fig}
	}}, nil
}

// Speedup returns config ci's percent IPC improvement over baseline on
// benchmark bi.
func (r *LadderResult) Speedup(ci, bi int) float64 {
	return Speedup(&r.Base[bi], &r.Runs[ci][bi])
}

// AvgSpeedup averages Speedup over benchmarks.
func (r *LadderResult) AvgSpeedup(ci int) float64 {
	var s float64
	for bi := range r.Benches {
		s += r.Speedup(ci, bi)
	}
	return s / float64(len(r.Benches))
}

// RexRate returns config ci's re-execution rate on benchmark bi.
func (r *LadderResult) RexRate(ci, bi int) float64 {
	return r.Runs[ci][bi].Stats.RexRate()
}

// AvgRexRate averages RexRate over benchmarks.
func (r *LadderResult) AvgRexRate(ci int) float64 {
	var s float64
	for bi := range r.Benches {
		s += r.RexRate(ci, bi)
	}
	return s / float64(len(r.Benches))
}

// --- Fig. 8: SSBF organization sensitivity ------------------------------

// SSBFVariant names one Fig. 8 organization.
type SSBFVariant struct {
	Label string
	Cfg   core.SSBFConfig
}

// Fig8Variants returns the paper's six SSBF organizations.
func Fig8Variants() []SSBFVariant {
	return []SSBFVariant{
		{"128", core.SSBFConfig{Entries: 128, GranuleBytes: 8, LineBytes: 64}},
		{"512", core.SSBFConfig{Entries: 512, GranuleBytes: 8, LineBytes: 64}},
		{"2048", core.SSBFConfig{Entries: 2048, GranuleBytes: 8, LineBytes: 64}},
		{"Bloom", core.SSBFConfig{Entries: 512, GranuleBytes: 8, DualHash: true, DualEntries: 512, LineBytes: 64}},
		{"4-byte", core.SSBFConfig{Entries: 512, GranuleBytes: 4, LineBytes: 64}},
		{"Infinite", core.SSBFConfig{Entries: 0, GranuleBytes: 4, LineBytes: 64}},
	}
}

// Fig8Result holds rex rates [variant][bench] plus IPCs for the performance
// sensitivity sentence in §4.4.
type Fig8Result struct {
	Benches  []string
	Variants []SSBFVariant
	Rex      [][]float64
	IPC      [][]float64
}

// Fig8Study sweeps SSBF organizations on the SSQ machine (the optimization
// with the highest re-execution rates), variant-major.
func Fig8Study(benches []string, insts uint64, spec pipeline.SampleSpec) Study[*Fig8Result] {
	vars := Fig8Variants()
	var jobs []engine.Job
	for _, v := range vars {
		for _, bench := range benches {
			jobs = append(jobs, job("fig8-ssbf", v.Label, fig8Rung(v), bench, insts, spec))
		}
	}
	return Study[*Fig8Result]{Jobs: jobs, Reduce: func(rs []Result) *Fig8Result {
		out := &Fig8Result{Benches: benches, Variants: vars}
		for vi := range vars {
			row := rs[vi*len(benches) : (vi+1)*len(benches)]
			out.Rex = append(out.Rex, make([]float64, len(benches)))
			out.IPC = append(out.IPC, make([]float64, len(benches)))
			for bi := range row {
				out.Rex[vi][bi] = row[bi].Stats.RexRate()
				out.IPC[vi][bi] = row[bi].Stats.IPC()
			}
		}
		return out
	}}
}

// --- §3.6 sensitivity studies --------------------------------------------

// SSNWidthResult holds the wrap-drain study: IPC and drain counts per SSN
// width, relative to infinite-width SSNs.
type SSNWidthResult struct {
	Benches []string
	Bits    []int // 0 = infinite
	IPC     [][]float64
	Drains  [][]uint64
}

// SSNWidthStudy sweeps hardware SSN widths on the SSQ machine, width-major.
func SSNWidthStudy(benches []string, bits []int, insts uint64, spec pipeline.SampleSpec) Study[*SSNWidthResult] {
	var jobs []engine.Job
	for _, b := range bits {
		for _, bench := range benches {
			cfg := ssnRung(b)
			jobs = append(jobs, job("ssn-width", cfg.Name, cfg, bench, insts, spec))
		}
	}
	return Study[*SSNWidthResult]{Jobs: jobs, Reduce: func(rs []Result) *SSNWidthResult {
		out := &SSNWidthResult{Benches: benches, Bits: bits}
		for wi := range bits {
			row := rs[wi*len(benches) : (wi+1)*len(benches)]
			out.IPC = append(out.IPC, make([]float64, len(benches)))
			out.Drains = append(out.Drains, make([]uint64, len(benches)))
			for bi := range row {
				out.IPC[wi][bi] = row[bi].Stats.IPC()
				out.Drains[wi][bi] = row[bi].Stats.WrapDrains
			}
		}
		return out
	}}
}

// The rungs the §3.6 and Fig. 8 studies derive from ssq+svw, each named
// "ssq+svw/<rung>" so ConfigByName rebuilds it from its name.

func fig8Rung(v SSBFVariant) pipeline.Config {
	cfg := SSQ(SVWUpd)
	cfg.SVW.SSBF = v.Cfg
	cfg.Name = "ssq+svw/" + v.Label
	return cfg
}

func ssnRung(bits int) pipeline.Config {
	cfg := SSQ(SVWUpd)
	cfg.SVW.SSNBits = bits
	cfg.Name = fmt.Sprintf("ssq+svw/ssn%d", bits)
	return cfg
}

func atomicRung() pipeline.Config {
	cfg := SSQ(SVWUpd)
	cfg.SVW.SpeculativeSSBF = false
	cfg.Name = "ssq+svw/atomic"
	return cfg
}

// SSBFUpdateResult compares speculative vs atomic SSBF update policies.
type SSBFUpdateResult struct {
	Benches            []string
	RexSpec, RexAtomic []float64
	IPCSpec, IPCAtomic []float64
}

// SSBFUpdateStudy measures §3.6's speculative-update trade-off on the SSQ
// machine: per benchmark, the speculative then the atomic policy.
func SSBFUpdateStudy(benches []string, insts uint64, spec pipeline.SampleSpec) Study[*SSBFUpdateResult] {
	var jobs []engine.Job
	for _, bench := range benches {
		cfg := SSQ(SVWUpd)
		cfg.SVW.SpeculativeSSBF = true
		jobs = append(jobs, job("ssbf-update", "spec", cfg, bench, insts, spec))
		jobs = append(jobs, job("ssbf-update", "atomic", atomicRung(), bench, insts, spec))
	}
	return Study[*SSBFUpdateResult]{Jobs: jobs, Reduce: func(rs []Result) *SSBFUpdateResult {
		out := &SSBFUpdateResult{Benches: benches}
		for bi := range benches {
			sp, at := &rs[2*bi].Stats, &rs[2*bi+1].Stats
			out.RexSpec = append(out.RexSpec, sp.RexRate())
			out.RexAtomic = append(out.RexAtomic, at.RexRate())
			out.IPCSpec = append(out.IPCSpec, sp.IPC())
			out.IPCAtomic = append(out.IPCAtomic, at.IPC())
		}
		return out
	}}
}

// --- svwexp's setup and extension studies --------------------------------

// SummaryStudy reproduces the abstract's headline: the average
// re-execution reduction SVW delivers across the three optimizations. Its
// jobs are Figs. 5–7's, so after those figures on a shared engine (svwexp
// -all) every cell is a memo hit.
func SummaryStudy(benches []string, insts uint64, spec pipeline.SampleSpec) Study[*SummaryReport] {
	s := LaddersStudy([]Ladder{Fig5Ladder(), Fig6Ladder(), Fig7Ladder()}, benches, insts, spec)
	return Study[*SummaryReport]{Jobs: s.Jobs, Reduce: func(rs []Result) *SummaryReport {
		names := []string{"NLQls", "SSQ", "RLE"}
		svwRung := []int{2, 2, 1} // each ladder's full-SVW rung; rung 0 is raw
		out := &SummaryReport{}
		var total float64
		for i, res := range s.Reduce(rs) {
			raw, svw := res.AvgRexRate(0), res.AvgRexRate(svwRung[i])
			red := 0.0
			if raw > 0 {
				red = (1 - svw/raw) * 100
			}
			total += red
			out.Studies = append(out.Studies, SummaryLine{names[i], 100 * raw, 100 * svw, red})
		}
		out.AvgReductionPct = total / float64(len(names))
		return out
	}}
}

// RetPortsStudy reproduces the setup remark that dual store retirement
// ports only help vortex (~6%) on the 8-wide machine.
func RetPortsStudy(benches []string, insts uint64, spec pipeline.SampleSpec) Study[RetPortsReport] {
	var jobs []engine.Job
	for _, bench := range benches {
		two := BaselineNLQ()
		two.RetirePorts = 2
		two.Name = "base-2port"
		jobs = append(jobs, job("retports", "1port", BaselineNLQ(), bench, insts, spec),
			job("retports", "2port", two, bench, insts, spec))
	}
	return Study[RetPortsReport]{Jobs: jobs, Reduce: func(rs []Result) RetPortsReport {
		var out RetPortsReport
		for bi, bench := range benches {
			out = append(out, RetPortsLine{bench, Speedup(&rs[2*bi], &rs[2*bi+1])})
		}
		return out
	}}
}

// NLQSMStudy exercises the NLQsm banked-invalidation mechanism with the
// synthetic injector (an extension; the paper does not evaluate NLQsm).
func NLQSMStudy(benches []string, insts uint64, spec pipeline.SampleSpec) Study[NLQSMReport] {
	var jobs []engine.Job
	for _, bench := range benches {
		cfg := NLQ(SVWUpd)
		cfg.NLQSM = pipeline.NLQSMConfig{Enabled: true, IntervalCycles: 200}
		cfg.Name = "nlq+svw+sm"
		jobs = append(jobs, job("nlqsm", bench, cfg, bench, insts, spec))
	}
	return Study[NLQSMReport]{Jobs: jobs, Reduce: func(rs []Result) NLQSMReport {
		var out NLQSMReport
		for bi, bench := range benches {
			s := &rs[bi].Stats
			out = append(out, NLQSMLine{bench, s.Invalidations,
				100 * s.RexRate(), 100 * s.RexRateNLQSM(), s.IPC()})
		}
		return out
	}}
}

// AllBenches returns every benchmark name.
func AllBenches() []string { return workload.Names() }
