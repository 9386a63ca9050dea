package pipeline

// Writeback: process this cycle's completion events — publish values, mark
// stores' addresses/data known, run the conventional LQ ordering search, and
// resolve branches.

// writeback reports whether it had anything to do: a due event bucket or a
// store whose data arrived.
func (c *Core) writeback() bool {
	evs := c.events.take(c.cycle)
	for _, ev := range evs {
		c.complete(ev)
	}
	return c.scanPendingSTD() || evs != nil
}

// complete processes one event: a completion, or a timed uop's wake.
func (c *Core) complete(ev eventRec) {
	// The whole batch is processed even if a violation flush is requested
	// mid-way: events for instructions older than the flush point must not
	// be lost, and state published for about-to-be-squashed instructions is
	// reclaimed by the flush itself.
	u := c.uopAt(ev.seq)
	if u == nil || u.uid != ev.uid {
		return // the instance this event belonged to was squashed
	}
	if !u.issued {
		c.timedWake(u)
		return
	}
	if u.isStore() {
		c.storeAddrResolved(u)
		return
	}
	u.completed = true
	if u.destPhys != noPhys {
		v := u.dyn.Result
		if u.isLoad() {
			v = u.execValue // possibly stale; that is the point
		}
		c.setPhysValue(u.destPhys, v, u.completeC)
	}
	if u.isBranch() && u.mispredict && c.waitBranchSeq == u.seq {
		c.waitBranchSeq = ^uint64(0)
		c.fetchStallTil = u.completeC + 1
	}
}

// scanPendingSTD completes the data half of stores whose address has
// resolved but whose data register was still in flight, reporting whether
// any did.
func (c *Core) scanPendingSTD() bool {
	out := c.pendingSTD[:0]
	for _, ev := range c.pendingSTD {
		u := c.uopAt(ev.seq)
		if u == nil || u.uid != ev.uid {
			continue // squashed
		}
		if c.readyAt[u.srcPhys[1]] <= c.cycle {
			c.storeDataReady(u)
			continue
		}
		out = append(out, ev)
	}
	done := len(out) < len(c.pendingSTD)
	c.pendingSTD = out
	return done
}

// storeAddrResolved fires at STA resolution (the address was published to
// the queues at issue, stamped with this cycle): on machines with an
// associative LQ the store searches for premature younger loads. If the
// data register has already arrived, the data half completes in the same
// cycle.
func (c *Core) storeAddrResolved(u *uop) {
	d := u.dyn
	u.addrKnown = true
	if c.cfg.LQSearch {
		if ld, found := c.lq.SearchPremature(u.seq, d.EffAddr, d.MemBytes); found {
			// Conventional intra-thread ordering violation: flush the load
			// and everything younger; train store-sets with the exact pair.
			// Several stores can fire in one cycle; the oldest flush wins.
			c.stats.OrderingViolations++
			c.ss.Train(ld.PC, d.PC)
			c.requestFlush(ld.Seq - 1)
		}
	}
	if c.readyAt[u.srcPhys[1]] <= c.cycle {
		c.storeDataReady(u)
		return
	}
	c.pendingSTD = append(c.pendingSTD, eventRec{seq: u.seq, uid: u.uid})
}

// storeDataReady completes a store's data half (STD): the forwarding value
// becomes available, the store counts as executed, and store-set waiters are
// released.
func (c *Core) storeDataReady(u *uop) {
	d := u.dyn
	u.completed = true
	c.wakeIssue(c.cycle) // releases uops asleep on this store's execution
	if c.cycle > u.completeC {
		u.completeC = c.cycle
	}
	if rec := c.sq.Find(u.seq); rec != nil {
		rec.Data = d.StoreVal
		if rec.DataKnownAt > c.cycle {
			rec.DataKnownAt = c.cycle
		}
	}
	if u.inFSQ {
		if rec := c.fsq.Find(u.seq); rec != nil {
			rec.Data = d.StoreVal
			if rec.DataKnownAt > c.cycle {
				rec.DataKnownAt = c.cycle
			}
		}
	}
	if c.cfg.LSU == LSUSSQ {
		bank := c.hier.DCache.Bank(d.EffAddr, c.cfg.DBanks)
		c.fbs[bank].Insert(d.EffAddr, d.MemBytes, d.StoreVal, u.seq)
	}
	c.ss.StoreExecuted(u.ssSet, u.seq)
}
