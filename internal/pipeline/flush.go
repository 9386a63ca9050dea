package pipeline

import "svwsim/internal/core"

// Flush recovery: squash every instruction younger than the request's
// keepSeq, walking the ROB young-to-old to unwind the rename map and release
// physical registers; IT entries created by squashed instructions are only
// marked (squash reuse keeps them live through their references); the oracle
// stream rewinds so the same records refetch.

func (c *Core) doFlush() {
	keep := c.flushKeep
	c.flushPend = false

	for !c.rob.empty() && c.rob.tailSeq() > keep {
		u := c.uopAt(c.rob.tailSeq())
		c.squashUop(u)
		c.rob.truncateTo(u.seq - 1)
	}

	c.sq.SquashYoungerThan(keep)
	if c.fsq != nil {
		c.fsq.SquashYoungerThan(keep)
	}
	c.lq.SquashYoungerOrEqual(keep + 1)

	// Rex state.
	bufOut := c.rexStoreBuf[:0]
	for _, seq := range c.rexStoreBuf {
		if seq <= keep {
			bufOut = append(bufOut, seq)
		}
	}
	c.rexStoreBuf = bufOut
	if c.rexHead > keep+1 {
		c.rexHead = keep + 1
	}
	c.wakeIssue(c.cycle)

	// Front end: drop fetched-but-unrenamed instructions and redirect.
	c.fetchQClear()
	c.pendingRec = nil
	c.stream.Rewind(keep + 1)
	c.fetchStallTil = c.cycle + 2 // redirect bubble; refill via FrontDepth
	c.waitBranchSeq = ^uint64(0)
	c.haltSeen = false
	c.lastFetchLine = 0
	c.drainPending = false
}

// squashUop releases one instruction's resources, youngest-first.
func (c *Core) squashUop(u *uop) {
	c.unqueue(u)
	if u.itHandle >= 0 && c.it != nil {
		// The entry survives for squash reuse; its reference keeps the
		// destination register alive (limbo).
		c.it.MarkSquashed(u.itHandle, u.itSig)
	}
	if u.destPhys != noPhys {
		c.rmap[u.destArch] = u.oldDestPhys
		c.releaseRef(u.destPhys)
	}
	if u.isStore() {
		c.ssnRename--
		c.ss.StoreSquashed(u.ssSet, u.seq)
	}
}

// invalidate is the NLQsm extension's synthetic coherence-traffic
// injector, fired every IntervalCycles: it pretends another processor wrote
// the line most recently stored to, updating every SSBF bank with
// SSNrename+1 (§3.2) and marking all issued in-flight loads for
// re-execution. The injected invalidations are value-neutral (like false
// sharing or silent remote stores), so they exercise the full NLQsm
// re-execution path without perturbing single-thread architectural state.
func (c *Core) invalidate() {
	c.stats.Invalidations++
	if c.ssbf != nil {
		c.ssbf.Invalidate(c.lastStoreLine, core.InvalidationSSN(c.ssnRename))
	}
	if c.cfg.Rex == RexNone {
		return
	}
	if c.rob.empty() {
		return
	}
	for seq := c.rob.headSeq; seq <= c.rob.tailSeq(); seq++ {
		u := c.uopAt(seq)
		if u != nil && u.isLoad() && !u.eliminated && u.issued && !u.marked {
			u.marked = true
			u.kind = markNLQSM
		}
	}
}
