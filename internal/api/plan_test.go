package api

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/raceflag"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// nameForms lists every form of machine name Plan accepts: the registry
// names and the "base" alias, each registry machine's display name, both
// of those upper-cased and space-padded, the §3.6 SSN width rungs plus one
// width no study uses, the Fig. 8 rungs and the atomic-update rung.
func nameForms(t *testing.T) []string {
	t.Helper()
	names := append(sim.ConfigNames(), "base")
	for _, n := range sim.ConfigNames() {
		cfg, _ := sim.ConfigByName(n)
		names = append(names, cfg.Name)
	}
	for _, n := range names[:len(names):len(names)] {
		names = append(names, strings.ToUpper(n), "  "+n+"\t")
	}
	for _, bits := range []int{8, 10, 12, 16, 0, 7} {
		names = append(names, fmt.Sprintf("ssq+svw/ssn%d", bits))
	}
	variants := sim.Fig8Variants()
	if len(variants) != 6 {
		t.Fatalf("%d Fig. 8 variants, want 6", len(variants))
	}
	for _, v := range variants {
		names = append(names, "ssq+svw/"+v.Label)
	}
	return append(names, "ssq+svw/atomic")
}

// keySpecs are the sampling specs the key tests cross every name with.
var keySpecs = []pipeline.SampleSpec{{}, {Warmup: 1_000, Detail: 1_000, Period: 10_000}}

// checkPlannedKeys plans every name × spec × bench × budget as a one-cell
// sweep and requires the planned key to be the one the engine derives from
// the configuration ConfigByName returns for the name, and the planned job
// to carry that configuration.
func checkPlannedKeys(t *testing.T, names []string) {
	for _, name := range names {
		want, ok := sim.ConfigByName(name)
		if !ok {
			t.Errorf("%q does not resolve", name)
			continue
		}
		for _, spec := range keySpecs {
			for _, bench := range []string{"gcc", "twolf"} {
				for _, insts := range []uint64{0, 20_000} {
					req := SweepRequest{Cells: []SweepCell{{Config: name, Bench: bench}}, Insts: insts}
					req.SetSample(spec)
					cells, err := req.Plan(pipeline.SampleSpec{}, 1)
					if err != nil {
						t.Errorf("%q: %v", name, err)
						continue
					}
					c := cells[0]
					if key := engine.SampledFingerprint(want, bench, insts, spec); c.Key != key {
						t.Errorf("%q/%s/%d/%v: planned key %s, want %s", name, bench, insts, spec, c.Key, key)
					}
					if got := engine.SampledFingerprint(c.Job.Config, bench, insts, spec); got != c.Key {
						t.Errorf("%q: the planned job's config keys as %s, its cell as %s", name, got, c.Key)
					}
					if c.Job.Config.Name != want.Name || c.Job.Label != want.Name {
						t.Errorf("%q planned as %s/%s, want %s", name, c.Job.Label, c.Job.Config.Name, want.Name)
					}
				}
			}
		}
	}
}

// TestPlanKeysEveryNameForm: whatever form a machine is named in — the
// form a client sends, or the display name a forward sends an owner — the
// key Plan assembles from the interned digest is byte-identical to the one
// engine.SampledFingerprint computes, and names nothing resolves are
// still refused.
func TestPlanKeysEveryNameForm(t *testing.T) {
	checkPlannedKeys(t, nameForms(t))
	for _, bad := range []string{"", "nope", "ssq+svw/", "ssq+svw/ssn-1", "ssq+svw/ssnx", "nlq/ssn8", "ssq+svw/nope"} {
		req := SweepRequest{Cells: []SweepCell{{Config: bad, Bench: "gcc"}}}
		if _, err := req.Plan(pipeline.SampleSpec{}, 1); err == nil || err.Error() != fmt.Sprintf("unknown config %q", bad) {
			t.Errorf("%q: error %v, want unknown config", bad, err)
		}
		if _, ok := sim.ConfigByName(bad); ok {
			t.Errorf("ConfigByName(%q) resolved", bad)
		}
	}
}

// TestPlanKeysConcurrently: lookups share the interned table, so parallel
// plans (run it under -race) must agree with a serial one.
func TestPlanKeysConcurrently(t *testing.T) {
	names := nameForms(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkPlannedKeys(t, names)
		}()
	}
	wg.Wait()
}

// TestLookupReturnsCopies: a caller changing the configuration it got
// back — the run limits, the trace hook, the display name — changes
// nothing a later lookup or plan sees.
func TestLookupReturnsCopies(t *testing.T) {
	for _, name := range nameForms(t) {
		before, _ := sim.ConfigByName(name)
		mutated, _ := sim.ConfigByName(name)
		mutated.TraceCommit = func(pipeline.TraceRecord) {}
		mutated.MaxInsts++
		mutated.Name += "!"
		req := SweepRequest{Cells: []SweepCell{{Config: name, Bench: "gcc"}}}
		cells, err := req.Plan(pipeline.SampleSpec{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cells[0].Job.Config.MaxInsts++
		cells[0].Job.Config.Name += "!"
		after, _ := sim.ConfigByName(name)
		if after.TraceCommit != nil || after.MaxInsts != before.MaxInsts || after.Name != before.Name {
			t.Errorf("%q: a caller's change reached the next lookup (MaxInsts %d → %d, Name %q → %q)",
				name, before.MaxInsts, after.MaxInsts, before.Name, after.Name)
		}
	}
	checkPlannedKeys(t, nameForms(t))
}

// sweepMatrix is the 60-cell matrix a warm fabric sweep plans: every
// registry machine on four benchmarks.
func sweepMatrix() SweepRequest {
	return SweepRequest{Configs: sim.ConfigNames(), Benches: workload.Names()[:4], Insts: 10_000}
}

// maxPlanAllocs pins planning and keying the 60-cell matrix: one
// allocation per key, plus the flattened cells and the planned slice.
const maxPlanAllocs = 62

// TestPlanSweepAllocs pins the allocation count of Plan over the 60-cell
// matrix. Keying from the interned digests left one allocation per cell,
// its key; a regression that rebuilds or rehashes machines per cell shows
// up here first.
func TestPlanSweepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	req := sweepMatrix()
	if n := req.NumCells(); n != 60 {
		t.Fatalf("matrix has %d cells, want 60", n)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := req.Plan(pipeline.SampleSpec{}, 60); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxPlanAllocs {
		t.Fatalf("Plan of 60 cells: %.0f allocations, want at most %d", allocs, maxPlanAllocs)
	}
}

// BenchmarkPlanSweep plans and keys the 60-cell matrix, the work every
// fabric hop does for a warm sweep before it probes its store.
func BenchmarkPlanSweep(b *testing.B) {
	req := sweepMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := req.Plan(pipeline.SampleSpec{}, 60); err != nil {
			b.Fatal(err)
		}
	}
}
