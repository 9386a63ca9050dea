package pipeline

import (
	"fmt"
	"math/bits"
	"testing"

	"svwsim/internal/prog"
	"svwsim/internal/workload"
)

// checkScheduler walks the issue queue between two steps and checks the
// scheduler's invariants (see issue.go). c.cycle is the cycle the next step
// runs, so the next scan happens at c.cycle.
//
//   - Every dispatched, un-issued uop is in exactly one of the states
//     waiting, timed and ready; every other uop is in none.
//   - unready equals the number of its scheduled sources whose producer has
//     not issued, and a waiting uop is on each such source's waiter list.
//   - A timed uop's wake cycle is its issue cycle, not yet past, and its
//     event is on the wheel; a ready uop can issue at the next scan.
//   - The ready list holds exactly the ready uops, oldest first, and the
//     three counts add up to the occupancy rename checks against IQSize.
//   - An issued uop's destination register becomes ready at the uop's
//     completion cycle: readyAt is written once, at issue, and no later
//     step moves it.
//   - A store whose address resolved but whose data half has not is on
//     its data register's waiter list while that producer has not issued,
//     and has a wake event on the wheel for the data's arrival after.
func checkScheduler(c *Core) error {
	var waiting, timed, ready int
	for seq := c.rob.headSeq; !c.rob.empty() && seq <= c.rob.tailSeq(); seq++ {
		u := c.uopAt(seq)
		slot := c.rob.slot(seq)
		onList := c.ready[slot>>6]>>(slot&63)&1 == 1
		queued := !u.issued && !u.completed
		if queued != (u.iqState != iqNone) {
			return fmt.Errorf("seq %d: issued=%v completed=%v but scheduler state %d",
				seq, u.issued, u.completed, u.iqState)
		}
		if onList != (u.iqState == iqReady) {
			return fmt.Errorf("seq %d: on ready list %v in state %d", seq, onList, u.iqState)
		}
		if u.issued && u.destPhys != noPhys && c.readyAt[u.destPhys] != u.completeC {
			return fmt.Errorf("seq %d: completes at %d, but its register p%d is ready at %d",
				seq, u.completeC, u.destPhys, c.readyAt[u.destPhys])
		}
		if u.isStore() && u.addrKnown && !u.completed {
			if err := checkStoreData(c, u); err != nil {
				return err
			}
		}
		if !queued {
			continue
		}
		var unready uint8
		for i, n := 0, u.schedSrcs(); i < n; i++ {
			if p := u.srcPhys[i]; c.readyAt[p] == never {
				unready++
				on := 0
				for _, w := range c.waiters[p] {
					if w.seq == u.seq && w.uid == u.uid {
						on++
					}
				}
				if on == 0 {
					return fmt.Errorf("seq %d: not on the waiter list of unready source p%d", seq, p)
				}
			}
		}
		if u.unready != unready {
			return fmt.Errorf("seq %d: unready=%d, but %d producers have not issued", seq, u.unready, unready)
		}
		at := max(u.renameC+uint64(c.cfg.SchedDepth), c.operandsAt(u))
		switch u.iqState {
		case iqWaiting:
			waiting++
			if unready == 0 {
				return fmt.Errorf("seq %d: waiting with every producer issued", seq)
			}
		case iqTimed:
			timed++
			if u.timedAt != at || at < c.cycle {
				return fmt.Errorf("seq %d: timed for cycle %d, can issue at %d, now %d", seq, u.timedAt, at, c.cycle)
			}
			s := &c.events.slots[at&c.events.mask]
			found := false
			for _, ev := range s.evs {
				found = found || ev == eventRec{seq: u.seq, uid: u.uid}
			}
			if s.cycle != at || !found {
				return fmt.Errorf("seq %d: timed for cycle %d, but no wake event is on the wheel", seq, at)
			}
		case iqReady:
			ready++
			if at > c.cycle {
				return fmt.Errorf("seq %d: ready, but cannot issue before cycle %d (now %d)", seq, at, c.cycle)
			}
		}
	}
	onList := 0
	for _, w := range c.ready {
		onList += bits.OnesCount64(w)
	}
	if onList != ready {
		return fmt.Errorf("%d uops on the ready list, %d ready uops in the ROB", onList, ready)
	}
	prev, first := uint64(0), true
	lo, hi := c.rob.head, len(c.rob.buf)
	for pass := 0; pass < 2; pass, lo, hi = pass+1, 0, c.rob.head {
		for i := c.nextReady(lo, hi); i < hi; i = c.nextReady(i+1, hi) {
			seq := c.rob.buf[i].seq
			if !first && seq <= prev {
				return fmt.Errorf("ready list out of age order: seq %d after %d", seq, prev)
			}
			prev, first = seq, false
		}
	}
	if n := waiting + timed + ready; n != c.iqLen || n > c.cfg.IQSize {
		return fmt.Errorf("waiting %d + timed %d + ready %d != occupancy %d (IQSize %d)",
			waiting, timed, ready, c.iqLen, c.cfg.IQSize)
	}
	return nil
}

// checkStoreData checks that a store waiting for its data half will be
// woken: on the data register's waiter list while its producer has not
// issued, else by an event on the wheel at the data's arrival cycle.
func checkStoreData(c *Core, u *uop) error {
	p := u.srcPhys[1]
	at := c.readyAt[p]
	if at == never {
		for _, w := range c.waiters[p] {
			if w == (eventRec{seq: u.seq, uid: u.uid}) {
				return nil
			}
		}
		return fmt.Errorf("seq %d: store waits for p%d, but is not on its waiter list", u.seq, p)
	}
	if at < c.cycle {
		return fmt.Errorf("seq %d: store data arrived at %d, before cycle %d, but its data half is pending", u.seq, at, c.cycle)
	}
	if s := &c.events.slots[at&c.events.mask]; s.cycle == at {
		for _, ev := range s.evs {
			if ev == (eventRec{seq: u.seq, uid: u.uid}) {
				return nil
			}
		}
	}
	return fmt.Errorf("seq %d: store data arrives at %d, but no wake event is on the wheel", u.seq, at)
}

// runChecked runs cfg on p as Run does, checking the scheduler after every
// step, and requires the same statistics as an unchecked run.
func runChecked(t *testing.T, cfg Config, p *prog.Program) *Core {
	t.Helper()
	c := New(cfg, p)
	for !c.done {
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			t.Fatalf("%s: cycle limit hit\n%s", cfg.Name, c.debugState())
		}
		c.step()
		if err := c.stream.Err(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := checkScheduler(c); err != nil {
			t.Fatalf("%s at cycle %d: %v\n%s", cfg.Name, c.cycle, err, c.debugState())
		}
	}
	c.finalizeStats()
	if ref := runCore(t, cfg, p); *ref.Stats() != *c.Stats() {
		t.Fatalf("%s: a checked run differs from an unchecked one", cfg.Name)
	}
	return c
}

// TestSchedulerInvariants checks the scheduler after every step across the
// machine configurations, on benchmark kernels, on randomized property
// programs, on the tiny-structures machine, and on flush-heavy twolf.
func TestSchedulerInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	short := func(c Config) Config {
		c.MaxInsts, c.WarmupInsts = 5_000, 1_000
		return c
	}
	for _, cfg := range allConfigs() {
		for _, bench := range []string{"gcc", "twolf"} {
			runChecked(t, short(cfg), workload.Cached(bench))
		}
	}
	for seed := int64(100); seed < 104; seed++ {
		p := workload.Build(randomProfile(seed))
		for _, cfg := range allConfigs() {
			runChecked(t, short(cfg), p)
		}
	}

	tiny := testConfig()
	tiny.Name = "tiny"
	tiny.ROBSize, tiny.IQSize, tiny.LQSize, tiny.SQSize, tiny.PhysRegs = 16, 8, 6, 4, 64
	tiny.LSU, tiny.Rex, tiny.SVW.Enabled = LSUSSQ, RexReal, true
	tiny.MaxInsts, tiny.WarmupInsts = 8_000, 0
	runChecked(t, tiny, testProgram())

	// Raw NLQ on twolf: every marked load re-executes, and failures flush.
	nlq := allConfigs()[1]
	nlq.MaxInsts, nlq.WarmupInsts = 30_000, 0
	c := runChecked(t, nlq, workload.Cached("twolf"))
	if c.Stats().RexFlushes+c.Stats().OrderingViolations == 0 {
		t.Fatal("twolf on raw NLQ flushed nothing; the flush path went unchecked")
	}
}

// TestChangedReadyAtRefilesConsumers checks the one change a register's
// readyAt makes — from never to its producer's completion cycle, at the
// producer's issue — against every uop that waited on it: a queued uop
// whose last unissued producer it was is filed, timed for
// max(renameC+SchedDepth, operandsAt) or ready if that cycle has come, and a
// store whose address resolved before its data gets a wake event for the
// data's arrival (checkScheduler verifies the event).
func TestChangedReadyAtRefilesConsumers(t *testing.T) {
	cfg := allConfigs()[0]
	cfg.MaxInsts, cfg.WarmupInsts = 5_000, 0
	c := New(cfg, workload.Cached("gcc"))
	type watch struct {
		u   *uop
		uid uint64
		p   int
	}
	var watched []watch
	seen := map[iqState]int{}
	stores := 0
	for steps := 0; !c.done && (seen[iqTimed] == 0 || seen[iqReady] == 0 || stores == 0); steps++ {
		if steps > 100_000 {
			t.Fatalf("no consumer released: filed %v, stores %d", seen, stores)
		}
		watched = watched[:0]
		for seq := c.rob.headSeq; !c.rob.empty() && seq <= c.rob.tailSeq(); seq++ {
			u := c.uopAt(seq)
			if u.iqState == iqWaiting {
				for i, n := 0, u.schedSrcs(); i < n; i++ {
					if p := u.srcPhys[i]; c.readyAt[p] == never {
						watched = append(watched, watch{u, u.uid, p})
					}
				}
			}
			if u.isStore() && u.addrKnown && !u.completed && c.readyAt[u.srcPhys[1]] == never {
				watched = append(watched, watch{u, u.uid, u.srcPhys[1]})
			}
		}
		c.step()
		if err := checkScheduler(c); err != nil {
			t.Fatalf("cycle %d: %v", c.cycle, err)
		}
		for _, w := range watched {
			u := w.u
			if u.uid != w.uid || c.readyAt[w.p] == never {
				continue // squashed, or its producer has not issued
			}
			if u.isStore() && u.addrKnown {
				if !u.completed {
					stores++
				}
				continue
			}
			if u.issued || c.operandsAt(u) == never {
				continue // another producer is still pending
			}
			want := max(u.renameC+uint64(c.cfg.SchedDepth), c.operandsAt(u))
			switch u.iqState {
			case iqTimed:
				if u.timedAt != want {
					t.Fatalf("cycle %d: uop %d timed for %d, want %d", c.cycle, u.seq, u.timedAt, want)
				}
			case iqReady:
				if want > c.cycle {
					t.Fatalf("cycle %d: uop %d ready before its issue cycle %d", c.cycle, u.seq, want)
				}
			default:
				t.Fatalf("cycle %d: uop %d stayed in state %d after p%d became ready at %d",
					c.cycle, u.seq, u.iqState, w.p, c.readyAt[w.p])
			}
			seen[u.iqState]++
		}
	}
	for i := 0; i < 2_000 && !c.done; i++ {
		c.step()
		if err := checkScheduler(c); err != nil {
			t.Fatalf("cycle %d: %v", c.cycle, err)
		}
	}
}
