package api

import (
	"fmt"
	"runtime"
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
					job := c.Job()
					if got := engine.SampledFingerprint(job.Config, bench, insts, spec); got != c.Key {
						t.Errorf("%q: the planned job's config keys as %s, its cell as %s", name, got, c.Key)
					}
					if job.Config.Name != want.Name || job.Label != want.Name || c.Name() != want.Name {
						t.Errorf("%q planned as %s/%s/%s, want %s", name, job.Label, job.Config.Name, c.Name(), want.Name)
					}
					if job.Bench != bench || job.Insts != insts || job.Sample != spec {
						t.Errorf("%q: planned job runs %s/%d/%v, want %s/%d/%v", name, job.Bench, job.Insts, job.Sample, bench, insts, spec)
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
		job := cells[0].Job()
		job.Config.MaxInsts++
		job.Config.Name += "!"
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

// Planning and keying the 60-cell matrix allocates one key per cell and
// the planned slice, nothing else: maxPlanAllocs. maxPlanBytes bounds the
// bytes of those allocations, 9.4 KiB today (80 per key, 80 per planned
// cell). When every planned cell carried a copy of its machine's
// configuration, the matrix took 56 KB.
const (
	maxPlanAllocs = 61
	maxPlanBytes  = 12 << 10
)

// TestPlanSweepAllocs pins the allocations of Plan over the 60-cell
// matrix, in count and in bytes. Keying from the interned digests left
// one allocation per cell, its key; a regression that rebuilds or
// rehashes machines per cell, or copies a configuration into every
// planned cell again, shows up here first.
func TestPlanSweepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	req := sweepMatrix()
	if n := req.NumCells(); n != 60 {
		t.Fatalf("matrix has %d cells, want 60", n)
	}
	plan := func() {
		if _, err := req.Plan(pipeline.SampleSpec{}, 60); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, plan); allocs > maxPlanAllocs {
		t.Fatalf("Plan of 60 cells: %.0f allocations, want at most %d", allocs, maxPlanAllocs)
	}
	if b := bytesPerRun(50, plan); b > maxPlanBytes {
		t.Fatalf("Plan of 60 cells: %d bytes allocated, want at most %d", b, maxPlanBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
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
