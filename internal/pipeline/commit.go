package pipeline

import (
	"svwsim/internal/isa"
	"svwsim/internal/rle"
)

// Commit: in-order retirement at up to CommitWidth per cycle. Stores write
// the data cache (one per retirement port per cycle, sharing the port with
// load re-execution, with priority) and advance SSNretire, the SPCT, and —
// under the atomic policy — the SSBF. A load whose re-execution failed
// triggers a full flush: the load and everything younger refetch; the
// refetched load executes normally (its stale source was invalidated), and
// the predictors train so the mis-speculation does not recur.

// stallKind is why commit retired nothing in a cycle: the cause its first
// blocked slot charges.
type stallKind uint8

const (
	stallNone       stallKind = iota // something retired (or flushed)
	stallEmpty                       // ROB empty
	stallIncomplete                  // head not executed yet
	stallCommitLat                   // head inside the commit pipeline depth
	stallRexWait                     // rex has not passed the head
	stallStorePort                   // head store lacks a retirement port
)

// commit retires up to CommitWidth instructions and reports why the head
// blocked when nothing retired (stallNone otherwise).
func (c *Core) commit() stallKind {
	commitLat := c.cfg.commitLat()
	for n := 0; n < c.cfg.CommitWidth; n++ {
		u := c.rob.headUop()
		stall := stallNone
		switch {
		case u == nil:
			stall = stallEmpty
		case !u.completed:
			stall = stallIncomplete
		case c.cycle < u.completeC+commitLat:
			stall = stallCommitLat
		case c.cfg.Rex == RexReal && (u.rexDoneAt == ^uint64(0) || c.cycle < u.rexDoneAt):
			stall = stallRexWait
		case u.isStore() && c.portsUsed >= c.cfg.RetirePorts:
			// Retirement port busy (or held by a re-access). A failed
			// re-execution is a load's, so the order against it is moot.
			stall = stallStorePort
		}
		if stall != stallNone {
			if n > 0 {
				return stallNone
			}
			c.countStall(stall, u, 1)
			return stall
		}
		if u.isLoad() && (u.rexFail ||
			(c.cfg.Rex == RexPerfect && u.marked && c.rexMismatch(u))) {
			c.handleRexFailure(u)
			return stallNone
		}
		if u.isStore() {
			c.portsUsed++
			c.commitStore(u)
		}
		c.commitOne(u)
		if c.done {
			return stallNone
		}
	}
	return stallNone
}

// countStall charges n commit-blocked cycles with the head u to their
// cause, StallIncomplete broken down by the head's class and issue state.
func (c *Core) countStall(kind stallKind, u *uop, n uint64) {
	switch kind {
	case stallEmpty:
		c.stats.StallHeadEmpty += n
	case stallIncomplete:
		c.stats.StallIncomplete += n
		switch {
		case u.isLoad():
			c.stats.StallHeadLoad += n
		case u.isStore():
			c.stats.StallHeadStore += n
		case u.isBranch():
			c.stats.StallHeadBranch += n
		default:
			c.stats.StallHeadALU += n
		}
		if !u.issued {
			c.stats.StallHeadUnissued += n
		}
	case stallCommitLat:
		c.stats.StallCommitLat += n
	case stallRexWait:
		c.stats.StallRexWait += n
	case stallStorePort:
		c.stats.StallStorePort += n
	}
}

func (c *Core) commitStore(u *uop) {
	d := u.dyn
	c.commitMem.Write(d.EffAddr, d.MemBytes, d.StoreVal)
	c.hier.DCache.Access(d.EffAddr, c.cycle) // write access: tag update + occupancy
	c.ssnRetire++
	c.spct.Update(d.EffAddr, d.MemBytes, d.PC)
	if c.ssbf != nil && !c.cfg.SVW.SpeculativeSSBF {
		c.ssbf.Update(d.EffAddr, d.MemBytes, u.ssn)
	}
	if h := c.sq.Head(); h == nil || h.Seq != u.seq {
		panic("pipeline: store commit out of order with SQ")
	}
	c.sq.PopHead()
	if u.inFSQ {
		c.fsq.Remove(u.seq)
	}
	c.removeRexStoreBuf(u.seq)
	c.wakeIssue(c.cycle) // releases loads asleep on this store's commit
	c.lastStoreLine = d.EffAddr
	c.stats.CommittedStores++
}

func (c *Core) commitOne(u *uop) {
	switch {
	case u.isLoad():
		c.commitLoadStats(u)
		c.lq.PopHead()
	case u.isBranch():
		c.stats.CommittedBr++
	case u.dyn.Inst.Op == isa.OpHalt:
		c.done = true
		return // leave the halt at the ROB head
	}
	if c.cfg.TraceCommit != nil {
		rec := TraceRecord{
			Seq: u.seq, PC: u.dyn.PC, Text: u.dyn.Inst.String(),
			FetchC: u.fetchC, RenameC: u.renameC, IssueC: u.issueC,
			CompleteC: u.completeC, RexDoneC: u.rexDoneAt, CommitC: c.cycle,
			Marked: u.marked, Filtered: u.rexFiltered,
			Eliminated: u.eliminated, Forwarded: u.fwdOK,
		}
		if u.isLoad() {
			rec.LoadExec = u.execValue
			if u.eliminated {
				rec.LoadExec = c.integratedValue(u)
			}
			rec.LoadOracle = u.dyn.LoadVal
		}
		c.cfg.TraceCommit(rec)
	}
	if u.destPhys != noPhys && u.oldDestPhys != noPhys {
		// The previous mapping of the destination register dies here.
		c.releaseRef(u.oldDestPhys)
	}
	if c.rexHead <= u.seq {
		c.rexHead = u.seq + 1
	}
	c.rob.popHead()
	c.stream.Release(u.seq + 1)
	c.stats.Committed++
	c.committedTotal++
	if c.cfg.MaxInsts > 0 && c.committedTotal >= c.cfg.MaxInsts {
		c.done = true
	}
	if !c.warmDone && c.committedTotal >= c.cfg.WarmupInsts {
		// Warm-up ends: predictors, caches, steering and store-sets keep
		// their state; the counters restart.
		c.warmDone = true
		c.warmCycle = c.cycle
		c.stats = Stats{}
	}
}

func (c *Core) commitLoadStats(u *uop) {
	c.stats.CommittedLoads++
	if u.marked {
		c.stats.MarkedLoads++
		c.stats.MarkedByKind[u.kind]++
		if c.cfg.Rex == RexPerfect && u.rexDoneAt == ^uint64(0) {
			// Ideal re-execution has no cost, so the rex walker may lag
			// commit; count the would-be re-execution here instead.
			c.countRex(u)
		}
	}
	if u.rexFiltered {
		c.stats.RexFiltered++
	}
	if u.kind == markSSQFSQ {
		c.stats.FSQLoads++
	}
	if u.usedBest {
		c.stats.BestEffortFwd++
	}
	if u.eliminated {
		c.stats.Eliminated++
		switch u.elimKind {
		case rle.KindReuse:
			c.stats.ElimReuse++
		case rle.KindBypass:
			c.stats.ElimBypass++
		}
		if u.elimSquash {
			c.stats.ElimSquash++
		}
	}
}

// handleRexFailure processes a load whose re-execution detected a
// mis-speculation: train the predictors, invalidate the stale integration
// source, and flush from the load (it refetches and executes normally; by
// now the conflicting store has committed, so the replay reads the correct
// value and cannot fail again).
func (c *Core) handleRexFailure(u *uop) {
	c.stats.RexFailures++
	c.stats.RexFlushes++
	d := u.dyn

	switch {
	case u.eliminated:
		// False elimination: kill the IT entry so the refetched load
		// executes for real.
		if e, ok := c.it.InvalidateHandle(u.elimHandle, u.elimSig); ok {
			c.releaseRef(e.DestPhys)
		}
	case c.cfg.LSU == LSUSSQ:
		// Missed or botched forwarding: steer the pair through the FSQ.
		c.steer.TagLoad(d.PC)
		if spc := c.spct.Lookup(d.EffAddr); spc != 0 {
			c.steer.TagStore(spc)
		}
	}
	if c.cfg.LSU == LSUNLQ {
		// Memory-ordering violation detected by re-execution: recover the
		// store PC through the SPCT and train store-sets (§2.2).
		c.ss.Train(d.PC, c.spct.Lookup(d.EffAddr))
	}
	c.requestFlush(u.seq - 1)
}

// removeRexStoreBuf drops a committed store from the internal rex buffer.
func (c *Core) removeRexStoreBuf(seq uint64) {
	for i, s := range c.rexStoreBuf {
		if s == seq {
			c.rexStoreBuf = append(c.rexStoreBuf[:i], c.rexStoreBuf[i+1:]...)
			return
		}
	}
}
