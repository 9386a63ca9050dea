package pipeline

import (
	"runtime"
	"testing"

	"svwsim/internal/raceflag"
	"svwsim/internal/workload"
)

// Allocation-regression gates for the timing core's hot structures and for
// the steady-state cycle loop as a whole.

// TestROBSteadyStateZeroAlloc: the uop arena. Push recycles ring slots in
// place; a full dispatch-lookup-retire round trip allocates nothing.
func TestROBSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	r := newROB(512)
	var seq uint64
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			u := r.push(seq)
			u.uid = seq
			seq++
		}
		r.at(seq - 4)
		r.headUop()
		for i := 0; i < 8; i++ {
			r.popHead()
		}
	}); allocs != 0 {
		t.Errorf("ROB: %v allocs per steady-state cycle, want 0", allocs)
	}
}

// TestEventWheelSteadyStateZeroAlloc: once a bucket has reached its
// high-water mark, scheduling and draining reuse it forever.
func TestEventWheelSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	var w eventWheel
	w.init()
	// Warm every bucket to the high-water mark the loop below needs.
	cycle := uint64(0)
	for ; cycle < 2*initialWheelSize; cycle++ {
		for i := 0; i < 4; i++ {
			w.schedule(cycle, cycle+5, eventRec{seq: cycle})
		}
		w.take(cycle + 5)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 4; i++ {
			w.schedule(cycle, cycle+5, eventRec{seq: cycle})
		}
		w.take(cycle + 5)
		cycle++
	}); allocs != 0 {
		t.Errorf("eventWheel: %v allocs per steady-state cycle, want 0", allocs)
	}
}

// TestEventWheelGrowsPastHorizon pins the growth path: events beyond the
// wheel size must survive, not collide.
func TestEventWheelGrowsPastHorizon(t *testing.T) {
	var w eventWheel
	w.init()
	w.schedule(0, 10, eventRec{seq: 1})
	w.schedule(0, 10+initialWheelSize, eventRec{seq: 2}) // same bucket index, future cycle
	if evs := w.take(10); len(evs) != 1 || evs[0].seq != 1 {
		t.Fatalf("near event lost after growth: %v", evs)
	}
	if evs := w.take(10 + initialWheelSize); len(evs) != 1 || evs[0].seq != 2 {
		t.Fatalf("far event lost after growth: %v", evs)
	}
}

// TestEventWheelDiscardsFlushSkippedBucket pins the stale-bucket rule: a
// bucket left undrained behind `now` (its cycle's writeback was skipped by
// a flush) is discarded when its slot is needed again, not grown around.
func TestEventWheelDiscardsFlushSkippedBucket(t *testing.T) {
	var w eventWheel
	w.init()
	w.schedule(0, 10, eventRec{seq: 1}) // never drained
	later := uint64(10 + initialWheelSize)
	w.schedule(later-1, later, eventRec{seq: 2}) // now is past the stale bucket
	if len(w.slots) != initialWheelSize {
		t.Fatalf("wheel grew to %d slots for a stale collision", len(w.slots))
	}
	if evs := w.take(later); len(evs) != 1 || evs[0].seq != 2 {
		t.Fatalf("new event lost: %v", evs)
	}
}

// TestSteadyStateCycleLoopAllocationFree runs the full SVW-filtered machine
// deep into steady state and bounds the cycle loop's residual allocation
// rate. The bound is not exactly zero — functional-memory pages fault in on
// first touch and the stall-PC histogram admits new static PCs — but those
// are one-time events; a per-cycle allocation leaking back into a stage
// shows up orders of magnitude above the threshold.
func TestSteadyStateCycleLoopAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig()
	cfg.Name = "alloc-nlq+svw"
	cfg.LSU = LSUNLQ
	cfg.LQSearch = false
	cfg.StoreIssue = 2
	cfg.Rex = RexReal
	cfg.SVW.Enabled = true
	cfg.SVW.UpdateOnForward = true
	cfg.MaxInsts = 0 // run under step control, not Run
	c := New(cfg, workload.Build(workload.TestProfile(7)))

	const warmCycles = 40_000
	for i := 0; i < warmCycles; i++ {
		c.step()
	}
	const measured = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		c.step()
	}
	runtime.ReadMemStats(&after)
	perCycle := float64(after.Mallocs-before.Mallocs) / measured
	if perCycle > 0.02 {
		t.Errorf("steady-state cycle loop allocates %.4f objects/cycle, want ~0", perCycle)
	}
	if c.stats.Committed == 0 {
		t.Fatal("core made no progress; measurement is vacuous")
	}
}

// TestCellTurnoverAllocatesLittle: a Reset to the configuration and
// program the core last ran clears every structure in place, so what it
// allocates is the run's oracle emulator and its two copy-on-write memory
// images (3 objects today; the bound is 4). A whole cell — Reset plus Run —
// adds only the pages the run writes and their maps (about 15 objects on
// gcc at 10k instructions; the bound is 64). Either bound broken means a
// structure is being rebuilt per cell again.
func TestCellTurnoverAllocatesLittle(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	cfgs := allConfigs()
	cfg := cfgs[len(cfgs)-1] // rle+ssq+svw: every substrate at once
	cfg.MaxInsts = 10_000
	p := workload.Cached("gcc")
	c := runCore(t, cfg, p)
	if n := testing.AllocsPerRun(20, func() { c.Reset(cfg, p) }); n > 4 {
		t.Errorf("second Reset allocates %v objects, want <= 4", n)
	}
	if n := testing.AllocsPerRun(5, func() {
		c.Reset(cfg, p)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}); n > 64 {
		t.Errorf("a cell (Reset + Run) allocates %v objects, want <= 64", n)
	}
}
