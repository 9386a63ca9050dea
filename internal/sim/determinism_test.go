package sim

import (
	"context"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
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
// per-worker simulator reuse depends on: one core Reset across a
// heterogeneous job list — different configurations, different benchmarks,
// a repeat of the first job — produces statistics and committed memory
// byte-identical to a fresh core per job.
func TestResetReuseMatchesFresh(t *testing.T) {
	type job struct {
		cfg   pipeline.Config
		bench string
	}
	mk := func(c pipeline.Config) pipeline.Config {
		c.MaxInsts, c.WarmupInsts = detInsts, detInsts/5
		return c
	}
	jobs := []job{
		{mk(SSQ(SVWUpd)), "gcc"},
		{mk(NLQ(SVWNoUpd)), "twolf"},
		{mk(RLE(RLESVW)), "crafty"},
		{mk(SSQ(SVWUpd)), "gcc"}, // repeat: reuse after two intervening jobs
	}
	var reused *pipeline.Core
	for i, j := range jobs {
		p := workload.Cached(j.bench)
		fresh := pipeline.New(j.cfg, p)
		if err := fresh.Run(); err != nil {
			t.Fatal(err)
		}
		if reused == nil {
			reused = pipeline.New(j.cfg, p)
		} else {
			reused.Reset(j.cfg, p)
		}
		if err := reused.Run(); err != nil {
			t.Fatal(err)
		}
		if *fresh.Stats() != *reused.Stats() {
			t.Errorf("job %d (%s on %s): reused-core stats differ from fresh\nfresh:  %+v\nreused: %+v",
				i, j.cfg.Name, j.bench, *fresh.Stats(), *reused.Stats())
		}
		if addr, diff := fresh.CommittedMem().Diff(reused.CommittedMem()); diff {
			t.Errorf("job %d: committed memory differs at %#x", i, addr)
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
