package engine_test

// BenchmarkEngine measures the sharded engine on the paper's multi-ladder
// sweep: Figs. 5–7 on two benchmarks, 30 distinct (config, bench) jobs.
// Compare sub-benchmarks to see worker scaling:
//
//	go test -bench=Engine -benchtime=1x ./internal/sim/engine
//
// On a 4+ core machine j=4 completes the sweep near 4x faster than j=1;
// each iteration uses a fresh engine so memoization never hides work.
//
// Every engine benchmark reports "sim-insts" — the committed-instruction
// budget one iteration covers — so ns_per_op ratios in BENCH_pipeline.json
// stay comparable as instructions-per-second across budgets: exact runs
// simulate every instruction in detail, sampled runs cover the same span
// with short windows plus checkpointed fast-forward.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"svwsim/internal/emu"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

const benchInsts = 20_000

var benchLadders = func() []sim.Ladder {
	return []sim.Ladder{sim.Fig5Ladder(), sim.Fig6Ladder(), sim.Fig7Ladder()}
}

// ladderJobs counts the distinct (config, bench) cells one sweep
// iteration executes: rungs shared between ladders memoize, so only
// unique fingerprints cost simulation time.
func ladderJobs(benches []string) int {
	seen := make(map[string]bool)
	for _, l := range benchLadders() {
		for _, j := range sim.LaddersStudy([]sim.Ladder{l}, benches, benchInsts, pipeline.SampleSpec{}).Jobs {
			seen[engine.Fingerprint(j.Config, j.Bench, j.Insts)] = true
		}
	}
	return len(seen)
}

func BenchmarkEngine(b *testing.B) {
	benches := []string{"gcc", "twolf"}
	simInsts := float64(ladderJobs(benches)) * benchInsts
	for _, j := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(j)
				if _, err := sim.RunLaddersContext(context.Background(), eng, benchLadders(), benches, benchInsts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(simInsts, "sim-insts")
		})
	}
}

// BenchmarkFastForward measures the emulator-only fast-forward path that
// sampled simulation uses to cover the gaps between detailed windows:
// architectural state only, no timing model.
func BenchmarkFastForward(b *testing.B) {
	const ffInsts = 200_000
	p := workload.Cached("gcc")
	b.ReportAllocs()
	var executed uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(p.NewImage(), p.Entry)
		m.SetDecodeTable(p.Base, p.Decoded())
		n, err := m.FastForward(ffInsts)
		if err != nil {
			b.Fatal(err)
		}
		executed += n
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "ff-insts/s")
}

// memCheckpoints is a checkpoint store for benchmarking: an in-memory map,
// fresh per iteration, so one fast-forward per (bench, skip) serves the
// whole ladder within an iteration — the sampled subsystem's intended
// shape — while nothing leaks across iterations.
type memCheckpoints struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *memCheckpoints) GetCheckpoint(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *memCheckpoints) PutCheckpoint(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

// BenchmarkEngineSampled runs the same multi-ladder sweep as
// BenchmarkEngine/j=1 but at a 10x instruction budget under sampled
// simulation (4k detailed commits per 50k-instruction period), with
// checkpointed fast-forward shared across the ladder. Divide sim-insts by
// ns_per_op to compare instructions/sec against the exact engine: the
// sampled path must cover the budget several times faster.
func BenchmarkEngineSampled(b *testing.B) {
	const sampledInsts = 200_000
	spec := pipeline.SampleSpec{Warmup: 2_000, Detail: 2_000, Period: 50_000}
	benches := []string{"gcc", "twolf"}
	simInsts := float64(ladderJobs(benches)) * sampledInsts
	for i := 0; i < b.N; i++ {
		eng := engine.New(1)
		eng.SetCheckpointStore(&memCheckpoints{m: make(map[string][]byte)})
		if _, err := sim.RunLaddersSampled(context.Background(), eng,
			benchLadders(), benches, sampledInsts, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(simInsts, "sim-insts")
}
