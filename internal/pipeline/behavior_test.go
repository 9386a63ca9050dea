package pipeline

import (
	"testing"

	"svwsim/internal/prog"
	"svwsim/internal/rle"
	"svwsim/internal/workload"
)

// buildForwardingLoop returns a program with a tight store->load forwarding
// pattern whose load must observe the store's value through the SQ.
func buildForwardingLoop(iters int64) *prog.Program {
	b := prog.NewBuilder("fwdloop")
	base := uint64(prog.DefaultDataBase)
	b.MovImm(2, base)
	b.MovImm(1, uint64(iters))
	b.Label("top")
	b.Add(3, 1, 1) // changing value
	b.Stq(3, 0, 2) // store it
	b.Ldq(4, 0, 2) // immediately reload: must forward
	b.Sub(5, 4, 3) // r5 = 0 iff forwarding delivered the right value
	b.Stq(5, 8, 2) // expose for the memory oracle
	b.Addi(1, 1, -1)
	b.Bne(1, "top")
	b.Halt()
	return b.Build()
}

func TestForwardingDeliversFreshValues(t *testing.T) {
	for _, mk := range []struct {
		name string
		f    func(*Config)
	}{
		{"baseline", func(c *Config) {}},
		{"ssq", func(c *Config) {
			c.LSU = LSUSSQ
			c.Rex = RexReal
			c.SVW.Enabled = true
		}},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxInsts = 8_000
			cfg.WarmupInsts = 0
			mk.f(&cfg)
			p := buildForwardingLoop(2_000)
			c := runCore(t, cfg, p)
			verifyArchState(t, c, p)
			if c.Stats().SQForwards == 0 && c.Stats().BestEffortFwd == 0 {
				t.Error("no forwarding happened on a forwarding loop")
			}
		})
	}
}

// buildViolationLoop returns a program engineered to produce memory-ordering
// violations: the store's address arrives through a load (late), while the
// subsequent load to the same address is ready immediately.
func buildViolationLoop(iters int64) *prog.Program {
	b := prog.NewBuilder("violloop")
	base := uint64(prog.DefaultDataBase)
	b.MovImm(2, base)    // pointer cell lives here
	b.MovImm(3, base+64) // the target slot
	b.Stq(3, 0, 2)       // mem[base] = base+64
	b.MovImm(1, uint64(iters))
	b.Label("top")
	b.Ldq(4, 0, 2) // load the pointer (slow-ish path)
	b.Add(5, 1, 1)
	b.Stq(5, 0, 4) // store through the pointer: late address
	b.Ldq(6, 0, 3) // load the same slot directly: issues early, collides
	b.Stq(6, 8, 3) // expose the observed value
	b.Addi(1, 1, -1)
	b.Bne(1, "top")
	b.Halt()
	return b.Build()
}

func TestViolationsDetectedAndRecovered(t *testing.T) {
	// Disable store-sets learning persistence to keep violations coming.
	base := testConfig()
	base.MaxInsts = 10_000
	base.WarmupInsts = 0
	base.SS.ClearInterval = 200

	t.Run("baseline-lqsearch", func(t *testing.T) {
		p := buildViolationLoop(2_000)
		c := runCore(t, base, p)
		if c.Stats().OrderingViolations == 0 {
			t.Error("engineered violation loop produced no violations")
		}
		verifyArchState(t, c, p)
	})
	t.Run("nlq-rex", func(t *testing.T) {
		cfg := base
		cfg.LSU = LSUNLQ
		cfg.LQSearch = false
		cfg.StoreIssue = 2
		cfg.Rex = RexReal
		p := buildViolationLoop(2_000)
		c := runCore(t, cfg, p)
		if c.Stats().RexFailures == 0 {
			t.Error("NLQ missed the engineered violations")
		}
		verifyArchState(t, c, p)
	})
	t.Run("nlq-svw-still-catches", func(t *testing.T) {
		cfg := base
		cfg.LSU = LSUNLQ
		cfg.LQSearch = false
		cfg.StoreIssue = 2
		cfg.Rex = RexReal
		cfg.SVW.Enabled = true
		cfg.SVW.UpdateOnForward = true
		p := buildViolationLoop(2_000)
		c := runCore(t, cfg, p)
		verifyArchState(t, c, p) // the filter must not hide real conflicts
		if c.Stats().RexFailures == 0 {
			t.Error("SVW filtered away a real violation")
		}
	})
}

func TestMispredictsStallAndRecover(t *testing.T) {
	cfg := testConfig()
	p := testProgram()
	c := runCore(t, cfg, p)
	if c.Stats().Mispredicts == 0 {
		t.Error("noisy kernel produced no mispredicts")
	}
	if c.Stats().BranchAccuracy >= 1 || c.Stats().BranchAccuracy < 0.5 {
		t.Errorf("branch accuracy = %f", c.Stats().BranchAccuracy)
	}
}

func TestWarmupResetsCounters(t *testing.T) {
	with := testConfig()
	with.WarmupInsts = 10_000
	with.MaxInsts = 20_000
	p := testProgram()
	c := runCore(t, with, p)
	if c.Stats().Committed != 10_000 {
		t.Errorf("measured commits = %d, want 10000", c.Stats().Committed)
	}
	if c.CommittedTotal() != 20_000 {
		t.Errorf("total commits = %d", c.CommittedTotal())
	}
	if c.Stats().Cycles == 0 || c.Stats().Cycles >= c.Cycle() {
		t.Error("measured cycles must exclude warm-up")
	}
}

func TestHaltStopsTheMachine(t *testing.T) {
	b := prog.NewBuilder("short")
	for i := 0; i < 50; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	p := b.Build()
	cfg := testConfig()
	cfg.WarmupInsts = 0
	cfg.MaxInsts = 1_000_000
	c := runCore(t, cfg, p)
	if c.CommittedTotal() != 50 {
		t.Errorf("committed %d, want 50", c.CommittedTotal())
	}
}

func TestFSQFillsUnderSSQ(t *testing.T) {
	// After steering trains, predicted stores allocate FSQ entries; the
	// queue must never exceed its capacity (Push panics on overflow).
	cfg := testConfig()
	cfg.LSU = LSUSSQ
	cfg.Rex = RexReal
	cfg.FSQSize = 4 // tiny: exercise the full-stall path
	p := testProgram()
	c := runCore(t, cfg, p)
	verifyArchState(t, c, p)
}

func TestTinyStructuresStillCorrect(t *testing.T) {
	// Shrink every queue to force structural-stall paths constantly.
	cfg := testConfig()
	cfg.ROBSize = 16
	cfg.IQSize = 8
	cfg.LQSize = 6
	cfg.SQSize = 4
	cfg.PhysRegs = 64
	cfg.LSU = LSUSSQ
	cfg.Rex = RexReal
	cfg.SVW.Enabled = true
	cfg.MaxInsts = 8_000
	cfg.WarmupInsts = 0
	p := testProgram()
	c := runCore(t, cfg, p)
	verifyArchState(t, c, p)
}

func TestRLEWithTinyIT(t *testing.T) {
	cfg := testConfig()
	cfg.RLE.Enabled = true
	cfg.Rex = RexReal
	cfg.RexStages = 4
	cfg.RLE.IT = rle.Config{Sets: 4, Ways: 1}
	cfg.MaxInsts = 10_000
	cfg.WarmupInsts = 0
	p := testProgram()
	c := runCore(t, cfg, p)
	verifyArchState(t, c, p)
}

func TestStreamRewindStaysBounded(t *testing.T) {
	// The oracle stream must not grow without bound: Release keeps only
	// in-flight records.
	cfg := testConfig()
	cfg.MaxInsts = 30_000
	p := testProgram()
	c := runCore(t, cfg, p)
	if buf := c.stream.Buffered(); buf > 4*cfg.ROBSize {
		t.Errorf("stream retains %d records for a %d-entry ROB", buf, cfg.ROBSize)
	}
}

func TestAllSixteenBenchmarksRunOnSVWConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig()
	cfg.LSU = LSUSSQ
	cfg.Rex = RexReal
	cfg.SVW.Enabled = true
	cfg.SVW.UpdateOnForward = true
	cfg.MaxInsts = 15_000
	cfg.WarmupInsts = 1_000
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := workload.BuildByName(name)
			c := runCore(t, cfg, p)
			verifyArchState(t, c, p)
		})
	}
}

// buildPartialOverlapLoop returns a loop whose loads each overlap an older,
// narrower in-flight store: the SQ cannot forward, so every load waits for
// its store to commit, and the next iteration's stores wait on the loads.
func buildPartialOverlapLoop(iters int64) *prog.Program {
	b := prog.NewBuilder("partial")
	base := uint64(prog.DefaultDataBase)
	b.MovImm(2, base)
	b.MovImm(5, uint64(iters))
	b.MovImm(1, 7)
	b.Label("top")
	b.Mul(6, 1, 1)
	b.Stb(6, 3, 2)
	b.Ldq(3, 0, 2) // covers the byte store: partial overlap
	b.Add(1, 1, 3)
	b.Stw(1, 8, 2)
	b.Ldl(4, 8, 2) // covers the half-word store: partial overlap
	b.Mul(6, 4, 6)
	b.Stq(6, 16, 2)
	b.Ldb(7, 17, 2) // inside the quad store: forwards
	b.Add(1, 1, 7)
	b.Addi(5, 5, -1)
	b.Bne(5, "top")
	b.Halt()
	return b.Build()
}

// TestLoadWaitCountersPinned pins the per-cycle load-wait counters on the
// partial-overlap loop, where loads sit for hundreds of cycles behind a
// store's data or commit. The scheduler charges those waits without
// retrying the loads each cycle, and the core skips cycles in which nothing
// can happen; both must charge exactly what a per-cycle retry would. The
// figures were captured with the scheduler polling every entry every cycle.
func TestLoadWaitCountersPinned(t *testing.T) {
	p := buildPartialOverlapLoop(3000)
	base := testConfig()
	base.WarmupInsts, base.MaxInsts = 0, 20_000
	ssq := base
	ssq.LSU, ssq.Rex = LSUSSQ, RexReal
	ssq.SVW.Enabled, ssq.SVW.UpdateOnForward = true, true
	for _, tc := range []struct {
		cfg  Config
		want [7]uint64 // cycles; waits on data, commit, store set; stalls incomplete, commit depth, empty
	}{
		{base, [7]uint64{42074, 1707, 1141631, 1521935, 30196, 0, 212}},
		{ssq, [7]uint64{52092, 0, 352856, 895583, 18530, 21663, 234}},
	} {
		s := runCore(t, tc.cfg, p).Stats()
		got := [7]uint64{s.Cycles, s.LoadWaitData, s.LoadWaitCommit, s.LoadWaitSS,
			s.StallIncomplete, s.StallCommitLat, s.StallHeadEmpty}
		if got != tc.want {
			t.Errorf("%s: cycles, waits (data, commit, store set), stalls (incomplete, commit depth, empty) = %v, want %v",
				tc.cfg.LSU, got, tc.want)
		}
	}
}
