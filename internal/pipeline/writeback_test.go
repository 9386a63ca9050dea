package pipeline

import (
	"testing"

	"svwsim/internal/prog"
)

// buildSameCycleStores returns a loop in which two stores to one address
// (so one forwarding-buffer bank) get their data in the same cycle, the
// older store's address resolving first but its data event filed last, and
// a load of that address then probes the forwarding buffer. The older
// store's data is a 9-add chain off a load; the younger's is a multiply
// that issues early and completes with it.
func buildSameCycleStores(iters int64) *prog.Program {
	b := prog.NewBuilder("samecycle")
	base := uint64(prog.DefaultDataBase)
	b.MovImm(2, base)
	b.MovImm(9, uint64(iters))
	b.Label("top")
	b.Ldq(10, 0, 2)
	for i := 0; i < 9; i++ {
		b.Addi(10, 10, 1)
	}
	b.Mul(12, 9, 9)
	b.Stq(10, 16, 2) // older store: address early, data late
	b.Stq(12, 16, 2) // younger store: the value the load must see
	b.Sub(14, 12, 12)
	b.Addi(14, 14, 0)
	b.Add(14, 14, 2)
	b.Ldq(15, 16, 14) // address ready just after both stores' data
	b.Stq(15, 24, 2)
	b.Addi(9, 9, -1)
	b.Bne(9, "top")
	b.Halt()
	return b.Build()
}

// TestSameCycleStoreDataInAddressOrder pins writeback's order for store
// data that arrives in one cycle: address-resolution order (stdOrder), not
// the order the events were filed. The forwarding buffer serves a probe
// from its most recent insertion, so on the loop above the younger store
// must be inserted last for the load to forward its value: every
// iteration then forwards from the buffer and no re-execution fails. In
// filing order the older store lands last, the load forwards a stale
// value, and re-execution catches it. The run must also actually contain
// such a cycle, or the test has no teeth.
func TestSameCycleStoreDataInAddressOrder(t *testing.T) {
	const iters = 100
	cfg := testConfig()
	cfg.LSU = LSUSSQ
	cfg.Rex = RexReal
	cfg.LoadLat = 2
	cfg.SVW.Enabled = true
	cfg.SVW.UpdateOnForward = true
	cfg.MaxInsts = 3000
	cfg.WarmupInsts = 0
	p := buildSameCycleStores(iters)
	c := New(cfg, p)
	outOfOrder := 0
	for !c.done {
		// Peek at the bucket this step drains: the data events of stores
		// whose addresses have resolved, in filing order.
		if s := &c.events.slots[c.cycle&c.events.mask]; s.cycle == c.cycle {
			var last uint64
			for _, ev := range s.evs {
				u := c.uopAt(ev.seq)
				if u == nil || u.uid != ev.uid || !u.isStore() || !u.addrKnown {
					continue
				}
				if u.stdOrder < last {
					outOfOrder++
				}
				last = u.stdOrder
			}
		}
		c.step()
		if err := c.stream.Err(); err != nil {
			t.Fatal(err)
		}
	}
	c.finalizeStats()
	verifyArchState(t, c, p)
	if outOfOrder == 0 {
		t.Fatal("no cycle filed two stores' data out of address order; the loop no longer exercises the case")
	}
	if st := c.Stats(); st.RexFailures != 0 || st.BestEffortFwd != iters {
		t.Fatalf("re-execution failures %d, buffer forwards %d; want 0 and %d (the younger store's value every iteration)",
			st.RexFailures, st.BestEffortFwd, iters)
	}
}
