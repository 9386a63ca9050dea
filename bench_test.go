package svwsim

// The benchmark harness: one testing.B target per table/figure of the
// paper's evaluation (§4), plus throughput micro-benchmarks for the core
// structures. Each figure benchmark runs a scaled-down version of the full
// experiment (fewer instructions, a representative benchmark subset) and
// reports the figure's headline quantities as custom metrics:
//
//	go test -bench=Fig -benchmem -benchtime=1x
//
// The cmd/svwexp tool runs the full-size experiments. A table of
// paper-vs-measured values per figure is planned by ROADMAP.md's
// convergence item, at the budget where the figures converge.

import (
	"context"
	"testing"

	"svwsim/internal/core"
	"svwsim/internal/lsq"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

const benchInsts = 60_000

// benchSubset keeps figure benchmarks affordable while spanning behaviours:
// a high-IPC call bench, a mid mix, and a speculation-heavy kernel.
var benchSubset = []string{"crafty", "gcc", "twolf"}

// runStudy executes one study descriptor on a fresh engine.
func runStudy[R any](b *testing.B, s sim.Study[R]) R {
	b.Helper()
	res, err := sim.Run(context.Background(), engine.New(0), s)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runLadder executes one ladder over the benchmark subset.
func runLadder(b *testing.B, l sim.Ladder) *sim.LadderResult {
	b.Helper()
	return runStudy(b, sim.LaddersStudy([]sim.Ladder{l}, benchSubset, benchInsts, pipeline.SampleSpec{}))[0]
}

func runLadderBench(b *testing.B, ladder sim.Ladder, rawIdx, svwIdx int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := runLadder(b, ladder)
		b.ReportMetric(100*res.AvgRexRate(rawIdx), "rex-raw-%")
		b.ReportMetric(100*res.AvgRexRate(svwIdx), "rex-svw-%")
		b.ReportMetric(res.AvgSpeedup(rawIdx), "spd-raw-%")
		b.ReportMetric(res.AvgSpeedup(svwIdx), "spd-svw-%")
		b.ReportMetric(res.AvgSpeedup(len(ladder.Configs)-1), "spd-perfect-%")
	}
}

// BenchmarkFig5_NLQLS regenerates Fig. 5: the non-associative LQ's
// re-execution rates and speedups across the SVW ladder.
func BenchmarkFig5_NLQLS(b *testing.B) {
	runLadderBench(b, sim.Fig5Ladder(), 0, 2)
}

// BenchmarkFig6_SSQ regenerates Fig. 6: the speculative SQ study.
func BenchmarkFig6_SSQ(b *testing.B) {
	runLadderBench(b, sim.Fig6Ladder(), 0, 2)
}

// BenchmarkFig7_RLE regenerates Fig. 7: the redundant-load-elimination
// study, plus the elimination rate the optimization achieves.
func BenchmarkFig7_RLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runLadder(b, sim.Fig7Ladder())
		b.ReportMetric(100*res.AvgRexRate(0), "rex-raw-%")
		b.ReportMetric(100*res.AvgRexRate(1), "rex-svw-%")
		var elim float64
		for bi := range benchSubset {
			elim += res.Runs[0][bi].Stats.ElimRate()
		}
		b.ReportMetric(100*elim/float64(len(benchSubset)), "elim-%")
		b.ReportMetric(res.AvgSpeedup(1), "spd-svw-%")
		b.ReportMetric(res.AvgSpeedup(3), "spd-perfect-%")
	}
}

// BenchmarkFig8_SSBF regenerates Fig. 8: SSBF organization sensitivity on
// the paper's five-benchmark subset.
func BenchmarkFig8_SSBF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runStudy(b, sim.Fig8Study(workload.Fig8Subset(), benchInsts, pipeline.SampleSpec{}))
		avg := func(vi int) float64 {
			var s float64
			for bi := range res.Benches {
				s += res.Rex[vi][bi]
			}
			return 100 * s / float64(len(res.Benches))
		}
		b.ReportMetric(avg(0), "rex-128-%")
		b.ReportMetric(avg(1), "rex-512-%")
		b.ReportMetric(avg(2), "rex-2048-%")
		b.ReportMetric(avg(3), "rex-bloom-%")
		b.ReportMetric(avg(4), "rex-4byte-%")
		b.ReportMetric(avg(5), "rex-inf-%")
	}
}

// BenchmarkSSNWidth regenerates the §3.6 wrap-around study: IPC at finite
// SSN widths relative to infinite.
func BenchmarkSSNWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runStudy(b, sim.SSNWidthStudy(benchSubset, []int{8, 16, 0}, benchInsts, pipeline.SampleSpec{}))
		rel := func(wi int) float64 {
			var s float64
			for bi := range res.Benches {
				if res.IPC[2][bi] > 0 {
					s += (res.IPC[wi][bi]/res.IPC[2][bi] - 1) * 100
				}
			}
			return s / float64(len(res.Benches))
		}
		b.ReportMetric(rel(0), "ipc-8bit-vs-inf-%")
		b.ReportMetric(rel(1), "ipc-16bit-vs-inf-%")
	}
}

// BenchmarkSSBFUpdatePolicy regenerates the §3.6 speculative-vs-atomic SSBF
// update comparison.
func BenchmarkSSBFUpdatePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runStudy(b, sim.SSBFUpdateStudy(benchSubset, benchInsts, pipeline.SampleSpec{}))
		var spec, atomic, dIPC float64
		for bi := range res.Benches {
			spec += res.RexSpec[bi]
			atomic += res.RexAtomic[bi]
			if res.IPCAtomic[bi] > 0 {
				dIPC += (res.IPCSpec[bi]/res.IPCAtomic[bi] - 1) * 100
			}
		}
		n := float64(len(res.Benches))
		b.ReportMetric(100*spec/n, "rex-spec-%")
		b.ReportMetric(100*atomic/n, "rex-atomic-%")
		b.ReportMetric(dIPC/n, "ipc-spec-gain-%")
	}
}

// BenchmarkSummaryReduction regenerates the abstract's aggregate claim: the
// average re-execution reduction across the three optimizations (~85% in
// the paper).
func BenchmarkSummaryReduction(b *testing.B) {
	type study struct {
		ladder         sim.Ladder
		rawIdx, svwIdx int
	}
	studies := []study{
		{sim.Fig5Ladder(), 0, 2},
		{sim.Fig6Ladder(), 0, 2},
		{sim.Fig7Ladder(), 0, 1},
	}
	for i := 0; i < b.N; i++ {
		var total float64
		for _, s := range studies {
			res := runLadder(b, s.ladder)
			raw, svw := res.AvgRexRate(s.rawIdx), res.AvgRexRate(s.svwIdx)
			if raw > 0 {
				total += (1 - svw/raw) * 100
			}
		}
		b.ReportMetric(total/float64(len(studies)), "avg-reduction-%")
	}
}

// BenchmarkRetirePorts regenerates the setup remark that a second store
// retirement port is worth little except on the forwarding-heavy kernel.
func BenchmarkRetirePorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one, err := engine.Run(sim.BaselineNLQ(), "vortex", benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.BaselineNLQ()
		cfg.RetirePorts = 2
		two, err := engine.Run(cfg, "vortex", benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sim.Speedup(&one, &two), "vortex-2port-gain-%")
	}
}

// --- Structure micro-benchmarks ------------------------------------------

// BenchmarkSSBFOps measures the raw filter update+test cost.
func BenchmarkSSBFOps(b *testing.B) {
	f := core.NewSSBF(core.DefaultSSBFConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*8) & 0xFFFF
		f.Update(addr, 8, core.SSN(i))
		if f.NeedsRexec(addr^0x40, 8, core.SSN(i/2)) {
			_ = addr
		}
	}
}

// BenchmarkSQSearch measures an associative store queue scan at the paper's
// 64-entry size.
func BenchmarkSQSearch(b *testing.B) {
	q := lsq.NewStoreQueue(64)
	for i := 0; i < 64; i++ {
		q.Push(lsq.StoreRec{Seq: uint64(i), Addr: uint64(i * 16), Size: 8,
			AddrKnownAt: 1, DataKnownAt: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Search(100, uint64(i%64)*16, 8, 10)
	}
}

// BenchmarkPipelineThroughput measures simulated instructions per second of
// the full 8-wide machine with SVW — the simulator's own speed.
func BenchmarkPipelineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(sim.SSQ(sim.SVWUpd), "gcc", 50_000)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "sim-insts/s")
}
