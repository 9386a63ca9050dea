package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
	"svwsim/internal/storesets"
)

// The differential-equivalence suite: a golden snapshot of the full
// `svwsim -json` sweep — every registry configuration crossed with three
// behaviourally distinct benchmarks at a reduced instruction budget —
// captured before the zero-allocation rewrite of the timing core. The
// optimized core must reproduce it byte-for-byte: any change to timing,
// stats accounting, or JSON encoding shows up as a diff against
// testdata/svwsim_sweep.golden. Regenerate (deliberately!) with
//
//	go test ./internal/sim -run GoldenSVWSimSweep -update
const goldenSweepInsts = 8_000

var goldenSweepBenches = []string{"crafty", "gcc", "twolf"}

// goldenSweepJobs is the cross product cmd/svwsim would run for
// `-config <all registry names> -bench crafty,gcc,twolf`.
func goldenSweepJobs(t *testing.T) []engine.Job {
	t.Helper()
	var jobs []engine.Job
	for _, cname := range ConfigNames() {
		cfg, ok := ConfigByName(cname)
		if !ok {
			t.Fatalf("registry name %q does not resolve", cname)
		}
		for _, b := range goldenSweepBenches {
			jobs = append(jobs, engine.Job{Study: "svwsim", Label: cfg.Name,
				Config: cfg, Bench: b, Insts: goldenSweepInsts})
		}
	}
	return jobs
}

// renderSweepJSON encodes results exactly the way cmd/svwsim -json does:
// one indented JSON object per result, in job order.
func renderSweepJSON(t *testing.T, rs []engine.JobResult) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	for _, r := range rs {
		if err := enc.Encode(r.Result); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func runGoldenSweep(t *testing.T, workers int) string {
	t.Helper()
	eng := engine.New(workers)
	rs, err := eng.Run(goldenSweepJobs(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return renderSweepJSON(t, rs)
}

// TestGoldenSVWSimSweep asserts the timing core reproduces the committed
// pre-rewrite study output byte-for-byte.
func TestGoldenSVWSimSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkGolden(t, "svwsim_sweep.golden", runGoldenSweep(t, 4))
}

// TestGoldenSweepWorkerInvariance re-asserts -j 1 == -j 4 on the golden
// sweep itself (the full registry, not just the figure ladders).
func TestGoldenSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if seq, par := runGoldenSweep(t, 1), runGoldenSweep(t, 4); seq != par {
		t.Fatal("golden sweep differs between -j 1 and -j 4")
	}
}

// The event-path golden pins the timing paths a scheduler that sleeps and a
// core that skips idle cycles must reproduce exactly: the Figs. 5–7 ladders
// on the memory-bound kernels (long stretches where nothing can issue and
// loads sleep on store-set waits), the NLQsm injector firing every 200
// cycles, 8-bit SSNs that force wrap drains, and the ladders again on twolf
// for long enough to cross the store-set tables' 30 000-cycle clear with
// trained sets that a missed clear would change. Regenerate (deliberately!)
// with
//
//	go test ./internal/sim -run GoldenEventPaths -update
const (
	goldenPathInsts      = 10_000
	goldenPathClearInsts = 30_000
)

var goldenPathBenches = []string{"mcf", "vpr.r"}

func goldenPathJobs() []engine.Job {
	exact := pipeline.SampleSpec{}
	ladders := []Ladder{Fig5Ladder(), Fig6Ladder(), Fig7Ladder()}
	jobs := LaddersStudy(ladders, goldenPathBenches, goldenPathInsts, exact).Jobs
	jobs = append(jobs, NLQSMStudy(goldenPathBenches, goldenPathInsts, exact).Jobs...)
	jobs = append(jobs, SSNWidthStudy(goldenPathBenches, []int{8}, goldenPathInsts, exact).Jobs...)
	return append(jobs, LaddersStudy(ladders, []string{"twolf"}, goldenPathClearInsts, exact).Jobs...)
}

// TestGoldenEventPaths asserts the path golden byte-for-byte, and that the
// cells still reach every path it exists to pin — a golden that stopped
// draining or sleeping would keep passing while covering nothing.
func TestGoldenEventPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rs, err := engine.New(2).Run(goldenPathJobs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum pipeline.Stats
	var maxCycles uint64
	for _, r := range rs {
		sum.Add(&r.Result.Stats)
		maxCycles = max(maxCycles, r.Result.Stats.Cycles)
	}
	if clear := storesets.DefaultConfig().ClearInterval; maxCycles <= clear {
		t.Errorf("longest cell runs %d cycles; none crosses the %d-cycle store-set clear", maxCycles, clear)
	}
	for name, v := range map[string]uint64{
		"LoadWaitSS": sum.LoadWaitSS, "WrapDrains": sum.WrapDrains,
		"Invalidations": sum.Invalidations, "StallRexWait": sum.StallRexWait,
	} {
		if v == 0 {
			t.Errorf("no cell exercises %s", name)
		}
	}
	checkGolden(t, "svwsim_paths.golden", renderSweepJSON(t, rs))
}
