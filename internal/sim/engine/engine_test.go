package engine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svwsim/internal/pipeline"
)

const testInsts = 12_000

func testJobs(benches ...string) []Job {
	var jobs []Job
	for _, b := range benches {
		base := pipeline.Wide8Config()
		base.Name = "base"
		nlq := pipeline.Wide8Config()
		nlq.Name = "nlq"
		nlq.LSU = pipeline.LSUNLQ
		nlq.LQSearch = false
		nlq.StoreIssue = 2
		nlq.Rex = pipeline.RexReal
		jobs = append(jobs,
			Job{Study: "t", Label: "base", Config: base, Bench: b, Insts: testInsts},
			Job{Study: "t", Label: "nlq", Config: nlq, Bench: b, Insts: testInsts},
		)
	}
	return jobs
}

func TestResultsInJobOrder(t *testing.T) {
	jobs := testJobs("gcc", "twolf", "mcf")
	rs, err := New(4).Run(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(rs), len(jobs))
	}
	for i, r := range rs {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if r.Job.Bench != jobs[i].Bench || r.Job.Config.Name != jobs[i].Config.Name {
			t.Errorf("result %d is job %s/%s, want %s/%s",
				i, r.Job.Config.Name, r.Job.Bench, jobs[i].Config.Name, jobs[i].Bench)
		}
		if r.Result.Stats.Committed == 0 {
			t.Errorf("result %d committed nothing", i)
		}
	}
}

func TestMemoizationDedupes(t *testing.T) {
	// Three copies of the same sweep under different display names: only
	// the first copy's jobs execute; the rest are memo hits with their own
	// labels preserved.
	jobs := testJobs("gcc")
	n := len(jobs)
	for copyi := 0; copyi < 2; copyi++ {
		for _, j := range jobs[:n] {
			j.Config.Name += "-dup"
			jobs = append(jobs, j)
		}
	}
	eng := New(4)
	rs, err := eng.Run(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Memo()
	if m.Misses != uint64(n) {
		t.Errorf("misses = %d, want %d unique executions", m.Misses, n)
	}
	if m.Hits != uint64(2*n) {
		t.Errorf("hits = %d, want %d", m.Hits, 2*n)
	}
	// Which of the identical copies executed is scheduling-dependent; what
	// must hold is that exactly one per key ran and all copies agree.
	memoized := 0
	for i, r := range rs {
		if r.Memoized {
			memoized++
		}
		if r.Result.Stats != rs[i%n].Result.Stats {
			t.Errorf("job %d stats differ from its duplicate", i)
		}
		if r.Result.Config != jobs[i].Config.Name {
			t.Errorf("job %d result label %q, want %q", i, r.Result.Config, jobs[i].Config.Name)
		}
	}
	if memoized != 2*n {
		t.Errorf("%d jobs memoized, want %d", memoized, 2*n)
	}

	// A second Run on the same engine is answered entirely from the memo.
	if _, err := eng.Run(testJobs("gcc"), nil); err != nil {
		t.Fatal(err)
	}
	m2 := eng.Memo()
	if m2.Misses != m.Misses {
		t.Errorf("second sweep executed %d new jobs, want 0", m2.Misses-m.Misses)
	}
	if m2.Hits != m.Hits+uint64(n) {
		t.Errorf("second sweep hits = %d, want %d", m2.Hits-m.Hits, n)
	}
}

func TestProgressOrderedByJobIndex(t *testing.T) {
	jobs := testJobs("gcc", "twolf")
	var got []int
	var calls atomic.Int64
	_, err := New(4).Run(jobs, func(r JobResult) {
		got = append(got, r.Index) // safe: emission is serialized
		calls.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(jobs) {
		t.Fatalf("progress fired %d times for %d jobs", calls.Load(), len(jobs))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("progress order %v, want ascending job indices", got)
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs("gcc", "twolf")
	seq, err := New(1).Run(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(4).Run(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if seq[i].Result.Stats != par[i].Result.Stats {
			t.Errorf("job %d: -j 1 and -j 4 stats differ", i)
		}
	}
}

func TestErrorIsLowestIndexAndRunsComplete(t *testing.T) {
	jobs := testJobs("gcc")
	bad := jobs[0]
	bad.Config.Name = "deadlocked"
	bad.Config.MaxCycles = 1
	bad.Insts = 0
	jobs = append([]Job{jobs[1], bad, bad}, jobs...)
	rs, err := New(4).Run(jobs, nil)
	if err == nil {
		t.Fatal("want error from cycle-limited job")
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Errorf("error should name the lowest failing job index: %v", err)
	}
	// Healthy jobs still completed.
	if rs[0].Err != nil || rs[3].Err != nil || rs[4].Err != nil {
		t.Error("healthy jobs should have run despite the failure")
	}
}

func TestTimeout(t *testing.T) {
	eng := New(2)
	eng.SetTimeout(time.Nanosecond)
	jobs := testJobs("gcc")[:1]
	_, err := eng.Run(jobs, nil)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
}

func TestFailedJobsAreNotMemoized(t *testing.T) {
	// A transient failure (here: an absurd timeout) must not poison the memo
	// table: the same job on the same engine retries and can succeed.
	eng := New(1)
	eng.SetTimeout(time.Nanosecond)
	jobs := testJobs("gcc")[:1]
	if _, err := eng.Run(jobs, nil); err == nil {
		t.Fatal("want timeout error on first attempt")
	}
	eng.SetTimeout(0)
	rs, err := eng.Run(jobs, nil)
	if err != nil {
		t.Fatalf("retry after failure should execute fresh, got %v", err)
	}
	if rs[0].Memoized {
		t.Error("retry was served from memo; failures must not be cached")
	}
	if rs[0].Result.Stats.Committed == 0 {
		t.Error("retry produced no result")
	}
}

func TestConcurrentRunsShareMemo(t *testing.T) {
	// Two sweeps with identical jobs race on one engine: a job whose twin
	// is in flight in the other run waits for it and is delivered before
	// Run returns, and each unique job executes exactly once.
	eng := New(2)
	jobs := testJobs("gcc", "twolf")
	results := make([][]JobResult, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := eng.Run(jobs, nil)
			if err != nil {
				t.Error(err)
			}
			results[i] = rs
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		if results[0][i].Result.Stats.Committed == 0 || results[1][i].Result.Stats.Committed == 0 {
			t.Fatalf("job %d undelivered in a concurrent run", i)
		}
		if results[0][i].Result.Stats != results[1][i].Result.Stats {
			t.Errorf("job %d differs between concurrent runs", i)
		}
	}
	if m := eng.Memo(); m.Misses != uint64(len(jobs)) {
		t.Errorf("concurrent runs executed %d unique jobs, want %d", m.Misses, len(jobs))
	}
}

// TestDuplicatesWithinOneRun: repeats of one job inside a single Run on a
// two-worker pool execute once. Each repeat — a hit on the finished
// execution or a wait on the one still in flight — carries the same
// result, and progress still fires in job-index order.
func TestDuplicatesWithinOneRun(t *testing.T) {
	base := testJobs("gcc")
	a, b := base[0], base[1]
	jobs := []Job{a, a, b, a}
	eng := New(2)
	var got []int
	rs, err := eng.Run(jobs, func(r JobResult) {
		got = append(got, r.Index) // safe: emission is serialized
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Memo(); m.Misses != 2 || m.Hits != 2 {
		t.Errorf("memo = %+v, want 2 misses and 2 hits", m)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("progress order %v, want ascending job indices", got)
		}
	}
	if len(got) != len(jobs) {
		t.Fatalf("progress fired %d times for %d jobs", len(got), len(jobs))
	}
	for _, i := range []int{1, 3} {
		if rs[i].Result.Stats != rs[0].Result.Stats {
			t.Errorf("job %d stats differ from job 0's", i)
		}
	}
	if rs[2].Memoized || rs[2].Result.Stats.Committed == 0 {
		t.Error("job 2 (the only B) must execute")
	}
	// Jobs 0 and 1 race for A's memo entry; job 3 is handed out only after
	// a worker finished one of them, so it always finds the entry.
	if rs[0].Memoized == rs[1].Memoized {
		t.Errorf("memoized = %v/%v for jobs 0/1, want exactly one executed",
			rs[0].Memoized, rs[1].Memoized)
	}
	if !rs[3].Memoized {
		t.Error("job 3 executed; want it served from A's memo entry")
	}
}

func TestFingerprintIgnoresLabels(t *testing.T) {
	a := pipeline.Wide8Config()
	a.Name = "one"
	b := pipeline.Wide8Config()
	b.Name = "two"
	if Fingerprint(a, "gcc", 1000) != Fingerprint(b, "gcc", 1000) {
		t.Error("fingerprint must ignore the display name")
	}
	b.LoadLat = 4
	if Fingerprint(a, "gcc", 1000) == Fingerprint(b, "gcc", 1000) {
		t.Error("fingerprint must see timing-relevant fields")
	}
	if Fingerprint(a, "gcc", 1000) == Fingerprint(a, "twolf", 1000) ||
		Fingerprint(a, "gcc", 1000) == Fingerprint(a, "gcc", 2000) {
		t.Error("fingerprint must see bench and instruction budget")
	}
}

// TestConcurrentEnginesShareIdleCores runs several engines at once, each
// worker drawing its core from the process-wide idle pool and returning it
// when its run ends, and requires every result to equal a fresh core's.
// Afterwards the pool holds at least one core and no more than its bound.
func TestConcurrentEnginesShareIdleCores(t *testing.T) {
	jobs := testJobs("gcc", "twolf")
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		r, err := Run(j.Config, j.Bench, j.Insts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				rs, err := New(2).Run(jobs, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range rs {
					if rs[i].Result.Stats != want[i].Stats {
						t.Errorf("job %d (%s on %s): pooled-core stats differ from a fresh core's",
							i, jobs[i].Config.Name, jobs[i].Bench)
					}
				}
			}
		}()
	}
	wg.Wait()
	idleCores.Lock()
	n := len(idleCores.cores)
	idleCores.Unlock()
	if n == 0 || n > runtime.GOMAXPROCS(0) {
		t.Errorf("idle pool holds %d cores, want 1..%d", n, runtime.GOMAXPROCS(0))
	}
}
