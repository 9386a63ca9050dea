package engine

import (
	"testing"
	"time"

	"svwsim/internal/emu"
	"svwsim/internal/pipeline"
	"svwsim/internal/raceflag"
)

// ladderJobs is a 5-configuration ladder on one kernel: a baseline and four
// machines that read the same committed path.
func ladderJobs(bench string, insts uint64) []Job {
	var jobs []Job
	for i := 0; i < 5; i++ {
		cfg := pipeline.Wide8Config()
		cfg.Name = []string{"base", "nlq", "nlq+svw", "ssq", "ssq+svw"}[i]
		if i > 0 {
			cfg.LSU, cfg.LQSearch, cfg.StoreIssue, cfg.Rex = pipeline.LSUNLQ, false, 2, pipeline.RexReal
		}
		if i > 2 {
			cfg.LSU = pipeline.LSUSSQ
		}
		cfg.SVW.Enabled = i == 2 || i == 4
		jobs = append(jobs, Job{Study: "ladder", Label: cfg.Name, Config: cfg, Bench: bench, Insts: insts})
	}
	return jobs
}

// quietTraces waits for traces of earlier tests (a timed-out job's
// abandoned run) to end, and restarts the peak.
func quietTraces(t *testing.T) emu.TraceStats {
	t.Helper()
	for i := 0; emu.ReadTraceStats().LiveBytes != 0; i++ {
		if i > 500 {
			t.Fatalf("traces of earlier runs still hold %d bytes", emu.ReadTraceStats().LiveBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	emu.ResetTracePeak()
	return emu.ReadTraceStats()
}

// TestSharedTraceMemory bounds the oracle trace's memory. A 5-config
// ladder at 300k instructions records its committed path once and holds it
// while later rungs are queued: a peak of at most 16 MiB, and about 300k
// records emulated, not 1.5M. A one-cell run at 1M instructions holds only
// its in-flight window: at most 1 MiB.
func TestSharedTraceMemory(t *testing.T) {
	if raceflag.Enabled || testing.Short() {
		t.Skip("long runs; the memory bound does not depend on -race")
	}
	const ladderInsts = 300_000
	before := quietTraces(t)
	if _, err := New(2).Run(ladderJobs("gcc", ladderInsts), nil); err != nil {
		t.Fatal(err)
	}
	after := emu.ReadTraceStats()
	t.Logf("ladder: peak %d bytes, %d records", after.PeakBytes, after.Recorded-before.Recorded)
	if after.PeakBytes > 16<<20 {
		t.Errorf("ladder peaked at %d bytes of trace, want <= 16 MiB", after.PeakBytes)
	}
	if n := after.Recorded - before.Recorded; n < ladderInsts || n > ladderInsts*11/10 {
		t.Errorf("ladder recorded %d records, want one path of about %d", n, ladderInsts)
	}
	if after.LiveBytes != 0 {
		t.Errorf("%d bytes of trace held after the run", after.LiveBytes)
	}

	quietTraces(t)
	if _, err := New(1).Run(ladderJobs("twolf", 1_000_000)[2:3], nil); err != nil {
		t.Fatal(err)
	}
	peak := emu.ReadTraceStats().PeakBytes
	t.Logf("one cell: peak %d bytes", peak)
	if peak > 1<<20 {
		t.Errorf("one-cell run peaked at %d bytes of trace, want <= 1 MiB", peak)
	}
}
