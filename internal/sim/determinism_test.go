package sim

import (
	"context"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
	"svwsim/internal/trace"
	"svwsim/internal/workload"
)

// The paper's full multi-ladder sweep on a benchmark pair: 3 ladders ×
// (1 baseline + 4 rungs) × 2 benchmarks = 30 distinct jobs.
const detInsts = 12_000

func detLadders() []Ladder {
	return []Ladder{Fig5Ladder(), Fig6Ladder(), Fig7Ladder()}
}

var detBenches = []string{"gcc", "twolf"}

// sweepOutput renders the whole sweep — tables and JSON — as one string, the
// byte-level artifact the determinism guarantee covers.
func sweepOutput(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	results, err := RunLaddersContext(context.Background(), eng, detLadders(), detBenches, detInsts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		r.Print(&b)
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestSweepDeterministicAcrossWorkers guards the parallel engine: the same
// multi-ladder sweep at -j 1 and -j 4 must produce byte-identical aggregated
// output, whatever order jobs completed in.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	seq := sweepOutput(t, engine.New(1))
	par := sweepOutput(t, engine.New(4))
	if seq != par {
		t.Fatalf("-j 1 and -j 4 outputs differ:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq, par)
	}
	// Repeat at -j 4: also identical run-to-run.
	if again := sweepOutput(t, engine.New(4)); again != par {
		t.Fatal("-j 4 sweep is not reproducible run-to-run")
	}
}

// TestResetReuseMatchesFresh pins the Core.Reset contract the engine's
// core reuse depends on: one core Reset across a heterogeneous job list
// produces statistics and committed memory byte-identical to a fresh core
// per job. The list interleaves every registry configuration on three
// kernels (so consecutive jobs differ in both, and wide and narrow
// machines alternate) with configurations that change a substrate's
// geometry — cache hierarchy, predictor, store-set tables, D$ banks, SSBF,
// IT — so both the in-place clear and the rebuild of every substrate run.
// A tiny store-set geometry runs twice in a row: the second run clears a
// predictor the first one trained. The last jobs pass their core through
// the engine's idle pool between two engines.
func TestResetReuseMatchesFresh(t *testing.T) {
	type job struct {
		cfg   pipeline.Config
		bench string
	}
	mk := func(c pipeline.Config) pipeline.Config {
		c.MaxInsts, c.WarmupInsts = detInsts, detInsts/5
		return c
	}
	// Store-set tables small enough that sets merge and set ids wrap: a
	// merge keeps the smaller id, so a second run that did not restart
	// set allocation would merge differently.
	tinyStoreSets := func(c *pipeline.Config) { c.SS.SSITEntries, c.SS.LFSTEntries = 8, 4 }
	edit := func(c pipeline.Config, name string, f func(*pipeline.Config)) pipeline.Config {
		c.Name = name
		f(&c)
		return mk(c)
	}
	geometry := []job{
		{edit(SSQ(SVWUpd), "small-dcache", func(c *pipeline.Config) { c.Mem.DCache.SizeBytes = 16 << 10 }), "gcc"},
		{edit(NLQ(SVWUpd), "small-btb", func(c *pipeline.Config) { c.BP.BTBSets = 256 }), "twolf"},
		{edit(SSQ(SVWUpd), "4-banks", func(c *pipeline.Config) { c.DBanks = 4 }), "mcf"},
		{edit(BaselineNLQ(), "tiny-store-sets", tinyStoreSets), "gcc"},
		{edit(BaselineNLQ(), "tiny-store-sets", tinyStoreSets), "perl.s"},
		{edit(SSQ(SVWUpd), "bloom-ssbf", func(c *pipeline.Config) { c.SVW.SSBF = Fig8Variants()[3].Cfg }), "gcc"},
		{edit(RLE(RLESVW), "small-it", func(c *pipeline.Config) { c.RLE.IT.Sets = 16 }), "twolf"},
		{edit(SSQ(SVWUpd), "infinite-ssbf", func(c *pipeline.Config) { c.SVW.SSBF = Fig8Variants()[5].Cfg }), "mcf"},
	}
	names := ConfigNames()
	benches := []string{"gcc", "twolf", "mcf"}
	n := len(names) * len(benches)
	var jobs []job
	for i := 0; i < n; i++ {
		k := i * 7 % n // 7 is coprime with 45: every pair once, interleaved
		cfg, _ := ConfigByName(names[k%len(names)])
		jobs = append(jobs, job{mk(cfg), benches[k/len(names)]})
		if i%5 == 4 && len(geometry) > 0 {
			jobs = append(jobs, geometry[0])
			if geometry[0].cfg.Name == "tiny-store-sets" {
				jobs = append(jobs, geometry[1])
				geometry = geometry[1:]
			}
			geometry = geometry[1:]
		}
	}
	jobs = append(jobs, jobs[0]) // reuse after every other job

	fresh := make([]pipeline.Stats, len(jobs))
	var reused *pipeline.Core
	for i, j := range jobs {
		p := workload.Cached(j.bench)
		f := pipeline.New(j.cfg, p)
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		fresh[i] = *f.Stats()
		if reused == nil {
			reused = pipeline.New(j.cfg, p)
		} else {
			reused.Reset(j.cfg, p)
		}
		if err := reused.Run(); err != nil {
			t.Fatal(err)
		}
		if fresh[i] != *reused.Stats() {
			t.Errorf("job %d (%s on %s): reused-core stats differ from fresh\nfresh:  %+v\nreused: %+v",
				i, j.cfg.Name, j.bench, fresh[i], *reused.Stats())
		}
		if addr, diff := f.CommittedMem().Diff(reused.CommittedMem()); diff {
			t.Errorf("job %d (%s on %s): committed memory differs at %#x", i, j.cfg.Name, j.bench, addr)
		}
	}

	// Pool pass-through: a one-worker engine runs a few jobs and returns
	// its core to the idle pool; the next engine's worker takes a pooled
	// core (the trace says "reset", not "fresh") and must still match.
	engineJobs := func(js []job) []engine.Job {
		var out []engine.Job
		for _, j := range js {
			out = append(out, engine.Job{Config: j.cfg, Bench: j.bench})
		}
		return out
	}
	if _, err := engine.New(1).Run(engineJobs(jobs[:3]), nil); err != nil {
		t.Fatal(err)
	}
	tr := trace.New("pool", "test")
	rs, err := engine.New(1).RunContext(trace.NewContext(context.Background(), tr), engineJobs(jobs[3:6]), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	for _, sp := range tr.JSON().Spans {
		if sp.Name == "engine_job" && sp.Attrs["index"] == "0" && sp.Attrs["core"] != "reset" {
			t.Errorf("second engine's first job ran on a %q core, want one from the idle pool", sp.Attrs["core"])
		}
	}
	for i, r := range rs {
		if r.Result.Stats != fresh[3+i] {
			t.Errorf("pooled job %d (%s on %s): stats differ from fresh", 3+i, jobs[3+i].cfg.Name, jobs[3+i].bench)
		}
	}
}

// TestSweepMemoization asserts the engine's reuse contract on the same
// sweep: every (config, bench) pair executes exactly once per engine, and a
// repeated sweep (the -all / summary pattern) is answered entirely from the
// memo table.
func TestSweepMemoization(t *testing.T) {
	eng := engine.New(4)
	if _, err := RunLaddersContext(context.Background(), eng, detLadders(), detBenches, detInsts); err != nil {
		t.Fatal(err)
	}
	unique := uint64(0)
	for _, l := range detLadders() {
		unique += uint64(len(detBenches) * (1 + len(l.Configs)))
	}
	m := eng.Memo()
	if m.Misses != unique {
		t.Errorf("first sweep executed %d jobs, want %d unique", m.Misses, unique)
	}
	if m.Hits != 0 {
		t.Errorf("first sweep had %d memo hits, want 0 (all configs distinct)", m.Hits)
	}

	// The summary study re-runs the same three ladders: zero new executions.
	if _, err := RunLaddersContext(context.Background(), eng, detLadders(), detBenches, detInsts); err != nil {
		t.Fatal(err)
	}
	m2 := eng.Memo()
	if m2.Misses != unique {
		t.Errorf("repeated sweep re-executed %d jobs; shared configs must run exactly once",
			m2.Misses-unique)
	}
	if m2.Hits != unique {
		t.Errorf("repeated sweep hits = %d, want %d", m2.Hits, unique)
	}
}
