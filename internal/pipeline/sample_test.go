package pipeline

import (
	"reflect"
	"testing"

	"svwsim/internal/emu"
	"svwsim/internal/prog"
	"svwsim/internal/workload"
)

// TestStatsCountersComplete reflects over Stats and verifies counters()
// lists every uint64 field (array elements included): a counter added to
// the struct but not the list would silently drop out of sampled merging.
func TestStatsCountersComplete(t *testing.T) {
	var s Stats
	want := 0
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			want++
		case reflect.Array:
			if f.Type().Elem().Kind() == reflect.Uint64 {
				want += f.Len()
			}
		}
	}
	ptrs := s.counters()
	if len(ptrs) != want {
		t.Fatalf("counters() lists %d fields, Stats has %d uint64 counters", len(ptrs), want)
	}
	seen := make(map[*uint64]bool, len(ptrs))
	for _, p := range ptrs {
		if seen[p] {
			t.Fatalf("counters() lists a field twice")
		}
		seen[p] = true
	}
}

func TestStatsAddScale(t *testing.T) {
	a := Stats{Cycles: 100, Committed: 200, CommittedLoads: 40, RexLoads: 4, BranchAccuracy: 0.5}
	b := Stats{Cycles: 300, Committed: 600, CommittedLoads: 120, RexLoads: 36, BranchAccuracy: 0.9}
	sum := a
	sum.Add(&b)
	if sum.Cycles != 400 || sum.Committed != 800 || sum.RexLoads != 40 {
		t.Fatalf("Add: got %+v", sum)
	}
	if got := sum.BranchAccuracy; got != 0.8 { // (0.5*200 + 0.9*600) / 800
		t.Fatalf("Add: weighted BranchAccuracy = %v, want 0.8", got)
	}
	ipc := sum.IPC()
	rex := sum.RexRate()
	sum.Scale(10_000, sum.Committed)
	if sum.Committed != 10_000 || sum.Cycles != 5_000 {
		t.Fatalf("Scale: got %+v", sum)
	}
	if sum.IPC() != ipc || sum.RexRate() != rex {
		t.Fatalf("Scale changed derived rates: IPC %v->%v rex %v->%v", ipc, sum.IPC(), rex, sum.RexRate())
	}
}

// TestSampleSpecValidate pins the spec's validity rules.
func TestSampleSpecValidate(t *testing.T) {
	cases := []struct {
		spec SampleSpec
		ok   bool
	}{
		{SampleSpec{}, true}, // exact mode
		{SampleSpec{Warmup: 500, Detail: 1000, Period: 10_000}, true},
		{SampleSpec{Detail: 1000, Period: 1000}, true}, // all-detail, no skip
		{SampleSpec{Warmup: 1, Period: 10}, false},     // no detail window
		{SampleSpec{Detail: 8, Period: 4}, false},      // period too short
		{SampleSpec{Warmup: 6, Detail: 6, Period: 10}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

// snapshotAt runs the sampled path's fast-forward leg: a fresh functional
// emulator of p (restored from `from` when it is non-nil) executes n
// instructions, and its architectural state comes back as the snapshot a
// window starts from.
func snapshotAt(t *testing.T, p *prog.Program, from *emu.ArchState, n uint64) emu.ArchState {
	t.Helper()
	m := emu.New(p.NewImage(), p.Entry)
	m.SetDecodeTable(p.Base, p.Decoded())
	if from != nil {
		m.Restore(*from)
	}
	executed, err := m.FastForward(n)
	if err != nil {
		t.Fatal(err)
	}
	if executed != n {
		t.Fatalf("FastForward executed %d, want %d", executed, n)
	}
	return m.State()
}

// runWindow runs one detailed window from st on a fresh core.
func runWindow(t *testing.T, cfg Config, p *prog.Program, st emu.ArchState) *Core {
	t.Helper()
	c := new(Core)
	c.ResetWindow(cfg, p, st)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoreFastForward: a window started from a fast-forwarded snapshot
// continues detailed simulation from the skipped point, and its committed
// memory equals a pure functional execution of skip+detail instructions —
// the same end-to-end oracle the exact integration tests use.
func TestCoreFastForward(t *testing.T) {
	p := workload.Cached("gcc")
	const skip, detail = 30_000, 5_000

	cfg := Wide8Config()
	cfg.WarmupInsts = 0
	cfg.MaxInsts = detail
	st := snapshotAt(t, p, nil, skip)
	if st.Skipped != skip {
		t.Fatalf("snapshot skipped = %d, want %d", st.Skipped, skip)
	}
	c := runWindow(t, cfg, p, st)
	if got := c.CommittedTotal(); got != detail {
		t.Fatalf("committed %d detailed insts, want %d", got, detail)
	}

	// Functional reference: skip+detail instructions straight through.
	ref := snapshotAt(t, p, nil, skip+detail)
	if addr, differ := c.CommittedMem().Diff(ref.Mem); differ {
		t.Fatalf("committed memory diverges from functional reference at %#x", addr)
	}

	// Determinism: the same window from the same snapshot twice is
	// identical (the window leaves the snapshot reusable).
	c2 := runWindow(t, cfg, p, st)
	if *c.Stats() != *c2.Stats() {
		t.Fatalf("fast-forwarded runs diverge:\n%+v\n%+v", *c.Stats(), *c2.Stats())
	}
}

// TestResetFromSnapshot: a window behaves identically whichever way its
// snapshot was reached — one fast-forward leg, or two chained legs the way
// the sampled path advances between windows — and on a fresh core a window
// from the entry-point snapshot is exactly a Reset run.
func TestResetFromSnapshot(t *testing.T) {
	p := workload.Cached("mcf")
	const skip, detail = 20_000, 4_000

	cfg := Narrow4Config()
	cfg.WarmupInsts = 0
	cfg.MaxInsts = detail

	direct := snapshotAt(t, p, nil, skip)
	half := snapshotAt(t, p, nil, skip/2)
	chained := snapshotAt(t, p, &half, skip-skip/2)
	if chained.Skipped != skip {
		t.Fatalf("chained snapshot skipped = %d, want %d", chained.Skipped, skip)
	}
	a := runWindow(t, cfg, p, direct)
	b := runWindow(t, cfg, p, chained)
	if *a.Stats() != *b.Stats() {
		t.Fatalf("snapshot-restored run diverges:\n%+v\n%+v", *a.Stats(), *b.Stats())
	}
	if addr, differ := a.CommittedMem().Diff(b.CommittedMem()); differ {
		t.Fatalf("committed memory diverges at %#x", addr)
	}

	entry := snapshotAt(t, p, nil, 0)
	fresh := New(cfg, p)
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if w := runWindow(t, cfg, p, entry); *w.Stats() != *fresh.Stats() || w.Cycle() != fresh.Cycle() {
		t.Fatalf("entry-point window on a fresh core diverges from New:\n%+v\n%+v", *w.Stats(), *fresh.Stats())
	}
}
