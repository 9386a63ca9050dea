package pipeline

import (
	"svwsim/internal/emu"
	"svwsim/internal/isa"
)

// Fetch: consume oracle records at up to FetchWidth per cycle, modeling the
// instruction cache, the one-taken-branch-per-cycle limit, BTB bubbles, and
// mispredict stalls (fetch freezes until the branch resolves; the front-end
// refill is modeled by FrontDepth on the replacement instructions).
//
// The fetch queue is a fixed ring of FetchWidth*(FrontDepth+1) slots — the
// front-end pipe's full occupancy — so accepting and renaming instructions
// moves indices, never memory.

// fetchQPush appends at the ring tail.
func (c *Core) fetchQPush(r fetchRec) {
	c.fetchQ[(c.fetchHead+c.fetchLen)&c.fetchMask] = r
	c.fetchLen++
}

// fetchQFront returns the oldest queued record; only valid when fetchLen > 0.
func (c *Core) fetchQFront() *fetchRec { return &c.fetchQ[c.fetchHead] }

// fetchQPop removes the oldest queued record, clearing the slot so the ring
// holds no stale oracle-record pointers.
func (c *Core) fetchQPop() {
	c.fetchQ[c.fetchHead] = fetchRec{}
	c.fetchHead = (c.fetchHead + 1) & c.fetchMask
	c.fetchLen--
}

// fetchQClear empties the ring (flush recovery).
func (c *Core) fetchQClear() {
	for c.fetchLen > 0 {
		c.fetchQPop()
	}
}

// fetch reports whether it changed anything: once it gets past a full queue
// it draws an oracle record, touches the I-cache or accepts an instruction.
func (c *Core) fetch() bool {
	if c.haltSeen || c.cycle < c.fetchStallTil || c.waitBranchSeq != ^uint64(0) {
		return false
	}
	capacity := c.cfg.FetchWidth * (c.cfg.FrontDepth + 1)
	takenSeen := 0
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchLen >= capacity {
			return n > 0
		}
		rec := c.pendingRec
		if rec == nil {
			rec = c.stream.Next()
			if rec == nil {
				c.haltSeen = true // stream exhausted (halt already delivered)
				return true
			}
		}
		c.pendingRec = rec

		// Instruction cache: pay for each new line entered.
		line := rec.PC &^ 63
		if line != c.lastFetchLine {
			done := c.hier.ICache.Access(rec.PC, c.cycle)
			hit := c.cycle + uint64(c.cfg.Mem.ICache.Latency)
			c.lastFetchLine = line
			if done > hit {
				c.fetchStallTil = done
				return true // record stays pending
			}
		}

		inst := rec.Inst
		if inst.IsBranch() {
			if rec.Taken {
				takenSeen++
				if takenSeen > 1 {
					return true // past one taken branch per cycle; resume next cycle
				}
			}
			out := c.bp.Lookup(rec.PC, inst, rec.Taken, rec.NextPC)
			c.accept(rec)
			switch {
			case out.DirMispredict || out.TargetMispredict:
				c.stats.Mispredicts++
				c.waitBranchSeq = rec.Seq
				return true
			case out.BTBMiss && rec.Taken:
				// Target produced at decode: short redirect bubble.
				c.fetchStallTil = c.cycle + 2
				return true
			}
			continue
		}
		c.accept(rec)
		if inst.Op == isa.OpHalt {
			c.haltSeen = true
			return true
		}
	}
	return true
}

// accept moves the pending record into the fetch queue.
func (c *Core) accept(rec *emu.DynInst) {
	c.fetchQPush(fetchRec{dyn: rec, fetchC: c.cycle})
	c.pendingRec = nil
	c.stats.FetchedInsts++
}
