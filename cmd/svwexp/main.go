// Command svwexp regenerates the paper's evaluation: one flag per figure or
// sensitivity study. Each figure prints the same rows/series the paper
// plots: per-benchmark re-execution rates (top panel) and percent speedups
// over the study's baseline (bottom panel).
//
// Usage:
//
//	svwexp -fig 5            # NLQls study (paper Fig. 5)
//	svwexp -fig 6            # SSQ study (Fig. 6)
//	svwexp -fig 7            # RLE study (Fig. 7)
//	svwexp -fig 8            # SSBF organization sensitivity (Fig. 8)
//	svwexp -ssnwidth         # §3.6: SSN width / wrap-drain cost
//	svwexp -ssbfupd          # §3.6: speculative vs atomic SSBF updates
//	svwexp -summary          # abstract: aggregate re-execution reduction
//	svwexp -retports         # setup ablation: 1 vs 2 store retirement ports
//	svwexp -nlqsm            # extension: NLQsm invalidation mechanism demo
//	svwexp -all              # everything above
//
// Each flag names a study descriptor in internal/sim (sim.FigureStudy,
// sim.Fig8Study, ...): the study's engine jobs plus the reduction of their
// results into a report, executed by sim.Run. svwd's /v1/studies
// endpoints serve the same descriptors, so `svwexp -json -fig N` and
// /v1/studies/ladder?fig=N (likewise fig8, ssn and ssbf) emit
// byte-identical JSON for the same benches, insts and sampling spec.
// -benches applies to every study; without it Fig. 8 runs the paper's
// five-benchmark subset and everything else all benchmarks.
//
// All studies run through one shared experiment engine: -j bounds the
// worker pool (0 = GOMAXPROCS), -timeout bounds each job, and repeated
// (config, benchmark) pairs — ladder baselines, the summary study's
// re-sweep of Figs. 5–7 under -all — execute exactly once and are served
// from the engine's memo thereafter. -json switches the reports to
// machine-readable output; -stats reports the engine's reuse counters on
// stderr at exit. The -sample-* flags switch every study to sampled
// simulation (see pipeline.SampleSpec); sampled runs memoize under their
// own keys, so they never contaminate exact results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is svwexp with its arguments and output streams made explicit; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svwexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "reproduce figure 5..8")
	ssnwidth := fs.Bool("ssnwidth", false, "SSN width sensitivity (§3.6)")
	ssbfupd := fs.Bool("ssbfupd", false, "SSBF update policy (§3.6)")
	summary := fs.Bool("summary", false, "aggregate SVW re-execution reduction")
	retports := fs.Bool("retports", false, "retirement-port ablation")
	nlqsm := fs.Bool("nlqsm", false, "NLQsm invalidation mechanism demo")
	all := fs.Bool("all", false, "run everything")
	insts := fs.Uint64("insts", 0, "committed instructions per run (0 = config default)")
	workers := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock limit (0 = none)")
	jsonOut := fs.Bool("json", false, "machine-readable output")
	progress := fs.Bool("progress", false, "stream per-job progress to stderr (in job order)")
	stats := fs.Bool("stats", false, "report engine run/memo counters on stderr")
	benchList := fs.String("benches", "", "comma-separated benchmark subset")
	sampleWarmup := fs.Uint64("sample-warmup", 0,
		"sampled simulation: detailed warm-up commits per window (counters reset after)")
	sampleDetail := fs.Uint64("sample-detail", 0,
		"sampled simulation: measured commits per window (0 = exact simulation)")
	samplePeriod := fs.Uint64("sample-period", 0,
		"sampled simulation: committed instructions each window represents; "+
			"the gap past warmup+detail is fast-forwarded functionally")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "svwexp: "+format+"\n", args...)
		return 1
	}

	spec := pipeline.SampleSpec{Warmup: *sampleWarmup, Detail: *sampleDetail, Period: *samplePeriod}
	if err := spec.Validate(); err != nil {
		return fatalf("%v", err)
	}

	benches := sim.AllBenches()
	if *benchList != "" {
		benches = strings.Split(*benchList, ",")
		for _, b := range benches {
			if _, ok := workload.Get(b); !ok {
				return fatalf("unknown benchmark %q", b)
			}
		}
	}

	eng := engine.New(*workers)
	eng.SetTimeout(*timeout)
	if *progress {
		eng.SetProgress(func(r engine.JobResult) {
			src := "ran"
			if r.Memoized {
				src = "memo"
			}
			fmt.Fprintf(stderr, "svwexp: [%s] %s on %-10s %-4s IPC=%.3f rex=%.1f%%\n",
				r.Job.Study, r.Job.Config.Name, r.Job.Bench, src,
				r.Result.IPC(), 100*r.Result.Stats.RexRate())
		})
	}
	// Fig. 8 defaults to the paper's five-benchmark subset; an explicit
	// -benches list applies to it like to every other study.
	fig8Benches := workload.Fig8Subset()
	if *benchList != "" {
		fig8Benches = benches
	}
	// The first failure stops every later study.
	var failed error
	ran := false
	run := func(cond bool, s sim.Study[sim.Report]) {
		if failed != nil || (!cond && !*all) {
			return
		}
		ran = true
		rep, err := sim.Run(context.Background(), eng, s)
		if err == nil && !*jsonOut {
			rep.Print(stdout)
		} else if err == nil {
			err = rep.WriteJSON(stdout)
		}
		failed = err
	}
	figure := func(f int) sim.Study[sim.Report] {
		s, err := sim.FigureStudy(f, benches, *insts, spec)
		if err != nil && failed == nil {
			failed = err
		}
		return sim.Reported(s)
	}
	run(*fig == 5, figure(5))
	run(*fig == 6, figure(6))
	run(*fig == 7, figure(7))
	run(*fig == 8, sim.Reported(sim.Fig8Study(fig8Benches, *insts, spec)))
	run(*ssnwidth, sim.Reported(sim.SSNWidthStudy(benches, sim.SSNWidths(), *insts, spec)))
	run(*ssbfupd, sim.Reported(sim.SSBFUpdateStudy(benches, *insts, spec)))
	run(*summary, sim.Reported(sim.SummaryStudy(benches, *insts, spec)))
	run(*retports, sim.Reported(sim.RetPortsStudy(benches, *insts, spec)))
	run(*nlqsm, sim.Reported(sim.NLQSMStudy(benches, *insts, spec)))

	if failed != nil {
		return fatalf("%v", failed)
	}
	if !ran {
		fs.Usage()
		return 2
	}
	if *stats {
		m := eng.Memo()
		fmt.Fprintf(stderr, "svwexp: engine executed %d unique jobs, served %d from memo\n",
			m.Misses, m.Hits)
	}
	return 0
}
