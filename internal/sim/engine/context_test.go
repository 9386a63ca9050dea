package engine

import (
	"context"
	"errors"
	"testing"

	"svwsim/internal/pipeline"
)

func ctxConfig() Config {
	cfg := pipeline.Wide8Config()
	cfg.Name = "ctx-base"
	return cfg
}

func ctxJobs(n int, insts uint64) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := ctxConfig()
		jobs[i] = Job{Study: "ctx", Label: cfg.Name, Config: cfg,
			Bench: "gcc", Insts: insts + uint64(i)} // distinct budgets: no memo reuse
	}
	return jobs
}

// A context that is already done cancels every job before it starts:
// nothing executes, every slot reports the context error, and results stay
// in job order.
func TestRunContextPreCancelled(t *testing.T) {
	eng := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := ctxJobs(6, 5000)
	rs, err := eng.RunContext(ctx, jobs, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(rs) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(rs), len(jobs))
	}
	for i, r := range rs {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: want context.Canceled, got %v", i, r.Err)
		}
	}
	if m := eng.Memo(); m.Misses != 0 || m.Hits != 0 {
		t.Errorf("cancelled run touched the memo: %+v", m)
	}
}

// Cancelling mid-sweep skips the queued-but-unstarted jobs: with one worker
// and a cancel fired from the first job's progress callback, every later
// job reports context.Canceled without executing.
func TestRunContextCancelMidSweep(t *testing.T) {
	eng := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	jobs := ctxJobs(4, 5000)
	rs, err := eng.RunContext(ctx, jobs, func(r JobResult) {
		if r.Index == 0 {
			cancel()
		}
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rs[0].Err != nil {
		t.Fatalf("job 0 ran before the cancel, want success, got %v", rs[0].Err)
	}
	for i := 1; i < len(rs); i++ {
		if !errors.Is(rs[i].Err, context.Canceled) {
			t.Errorf("job %d: want context.Canceled, got %v", i, rs[i].Err)
		}
	}
	if m := eng.Memo(); m.Misses != 1 {
		t.Errorf("want exactly 1 execution, memo says %+v", m)
	}
}
