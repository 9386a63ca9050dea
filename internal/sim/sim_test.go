package sim

import (
	"context"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
)

func TestConfigLaddersWellFormed(t *testing.T) {
	for _, l := range []Ladder{Fig5Ladder(), Fig6Ladder(), Fig7Ladder()} {
		if len(l.Configs) != 4 || len(l.Labels) != 4 {
			t.Errorf("%s: %d configs / %d labels", l.Name, len(l.Configs), len(l.Labels))
		}
		if l.Baseline.Name == "" {
			t.Errorf("%s: unnamed baseline", l.Name)
		}
	}
}

func TestStudyConfigsMatchPaperSetup(t *testing.T) {
	// §4.1: the NLQ machine issues two stores per cycle, the baseline one.
	if BaselineNLQ().StoreIssue != 1 || NLQ(SVWUpd).StoreIssue != 2 {
		t.Error("NLQ store issue widths")
	}
	if NLQ(SVWUpd).LQSearch {
		t.Error("NLQ must not search the LQ")
	}
	// §4.2: the SSQ baseline takes 4-cycle loads, the SSQ machine 2.
	if BaselineSSQ().LoadLat != 4 || SSQ(SVWUpd).LoadLat != 2 {
		t.Error("SSQ load latencies")
	}
	// §4.3: the RLE study uses the 4-wide machine with a 4-stage rex pipe.
	if BaselineRLE().CommitWidth != 4 || RLE(RLESVW).RexStages != 4 {
		t.Error("RLE machine shape")
	}
	if !RLE(RLESVW).RLE.SquashReuse || RLE(RLESVWNoSQ).RLE.SquashReuse {
		t.Error("squash-reuse toggles")
	}
	// SVW defaults: 16-bit SSNs, 512-entry SSBF.
	c := SSQ(SVWUpd)
	if c.SVW.SSNBits != 16 || c.SVW.SSBF.Entries != 512 {
		t.Error("SVW defaults")
	}
	if !c.SVW.UpdateOnForward || SSQ(SVWNoUpd).SVW.UpdateOnForward {
		t.Error("UPD toggles")
	}
}

func TestRunLadderSmall(t *testing.T) {
	rs, err := RunLaddersContext(context.Background(), engine.New(0), []Ladder{Fig5Ladder()}, []string{"gcc"}, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if len(res.Base) != 1 || len(res.Runs) != 4 {
		t.Fatal("result shape")
	}
	if res.Base[0].IPC() <= 0 {
		t.Error("baseline IPC")
	}
	// The raw NLQ re-executes more than +SVW.
	if res.RexRate(0, 0) <= res.RexRate(2, 0) {
		t.Errorf("rex rates: raw %.3f vs svw %.3f", res.RexRate(0, 0), res.RexRate(2, 0))
	}
	var b strings.Builder
	res.Print(&b)
	out := b.String()
	for _, want := range []string{"gcc", "NLQ", "+SVW+UPD", "+PERFECT", "avg"} {
		if !strings.Contains(out, want) {
			t.Errorf("printout missing %q", want)
		}
	}
}

func TestFig8VariantsComplete(t *testing.T) {
	vars := Fig8Variants()
	labels := map[string]bool{}
	for _, v := range vars {
		labels[v.Label] = true
	}
	for _, want := range []string{"128", "512", "2048", "Bloom", "4-byte", "Infinite"} {
		if !labels[want] {
			t.Errorf("missing variant %s", want)
		}
	}
	// The infinite variant must use the exact filter.
	for _, v := range vars {
		if v.Label == "Infinite" && v.Cfg.Entries != 0 {
			t.Error("infinite variant misconfigured")
		}
		if v.Label == "Bloom" && !v.Cfg.DualHash {
			t.Error("Bloom variant misconfigured")
		}
	}
}

func TestSpeedupSigns(t *testing.T) {
	a := Result{}
	a.Stats.Committed, a.Stats.Cycles = 1000, 500 // IPC 2
	b := Result{}
	b.Stats.Committed, b.Stats.Cycles = 1000, 400 // IPC 2.5
	if s := Speedup(&a, &b); s < 24.9 || s > 25.1 {
		t.Errorf("speedup = %f", s)
	}
	if s := Speedup(&b, &a); s > -19.9 || s < -20.1 {
		t.Errorf("slowdown = %f", s)
	}
}

func TestAllBenches(t *testing.T) {
	if len(AllBenches()) != 16 {
		t.Error("bench list")
	}
}

// TestStudyJobsRebuildFromTheirNames pins what lets a fabric member send a
// study cell to its owner by name: every job of every study svwd serves,
// and every registry machine, rebuilds from its own Config.Name into the
// same machine (same memo key) under the same display name.
func TestStudyJobsRebuildFromTheirNames(t *testing.T) {
	benches := []string{"gcc"}
	var jobs []engine.Job
	for _, fig := range []int{5, 6, 7} {
		fs, err := FigureStudy(fig, benches, 1000, pipeline.SampleSpec{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, fs.Jobs...)
	}
	jobs = append(jobs, Fig8Study(benches, 1000, pipeline.SampleSpec{}).Jobs...)
	jobs = append(jobs, SSNWidthStudy(benches, []int{8, 10, 12, 16, 0}, 1000, pipeline.SampleSpec{}).Jobs...)
	jobs = append(jobs, SSBFUpdateStudy(benches, 1000, pipeline.SampleSpec{}).Jobs...)
	for _, name := range ConfigNames() {
		cfg, _ := ConfigByName(name)
		jobs = append(jobs, engine.Job{Config: cfg, Bench: "gcc"})
	}
	for _, j := range jobs {
		got, ok := ConfigByName(j.Config.Name)
		if !ok {
			t.Errorf("%s (%s): name does not resolve", j.Config.Name, j.Study)
			continue
		}
		if got.Name != j.Config.Name || engine.Fingerprint(got, "gcc", 1000) != engine.Fingerprint(j.Config, "gcc", 1000) {
			t.Errorf("%s (%s) rebuilds as a different machine %q", j.Config.Name, j.Study, got.Name)
		}
	}
	for _, bad := range []string{"ssq+svw/ssn-1", "ssq+svw/ssnx", "ssq+svw/", "ssq+svw/nope", "nlq/ssn8"} {
		if _, ok := ConfigByName(bad); ok {
			t.Errorf("%q resolved", bad)
		}
	}
}
