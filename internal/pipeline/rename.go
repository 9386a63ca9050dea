package pipeline

import (
	"svwsim/internal/core"
	"svwsim/internal/isa"
	"svwsim/internal/lsq"
	"svwsim/internal/rle"
)

// Rename/dispatch: in-order resource allocation at up to RenameWidth per
// cycle. This stage assigns store SSNs (and runs the wrap-drain policy),
// renames through the map table, consults store-sets, performs RLE
// integration, sets dispatch-time SVWs, and allocates ROB/LQ/SQ/FSQ/IQ
// entries.

// rename reports whether it changed anything: renamed an instruction, armed
// or performed a wrap drain, or evicted an IT entry for a register.
func (c *Core) rename() (moved bool) {
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fetchLen == 0 {
			return moved
		}
		fr := *c.fetchQFront()
		if fr.fetchC+uint64(c.cfg.FrontDepth) > c.cycle {
			return moved // still in the front-end pipe
		}
		if c.drainPending {
			if !c.rob.empty() || len(c.rexStoreBuf) > 0 {
				return moved
			}
			c.performDrain()
			moved = true
		}
		d := fr.dyn
		inst := d.Inst

		// Structural stalls.
		if c.rob.full() || c.iqLen >= c.cfg.IQSize {
			return moved
		}
		if inst.IsLoad() && c.lq.Full() {
			return moved
		}
		if inst.IsStore() {
			if c.sq.Full() {
				return moved
			}
			if c.cfg.SVW.Enabled && c.wrap.ShouldDrain(c.ssnRename) &&
				c.drainedAt != c.ssnRename {
				c.drainPending = true
				return true
			}
		}
		steeredStore := false
		if inst.IsStore() && c.fsq != nil && c.steer.StoreSteered(d.PC) {
			if c.fsq.Full() {
				return moved
			}
			steeredStore = true
		}

		// Source renaming (before destination): Ra, then Rb.
		nsrc := inst.NumSrcs()
		var srcPhys [2]int
		if nsrc > 0 {
			srcPhys[0] = c.rmap[inst.Ra]
		}
		if nsrc > 1 {
			srcPhys[1] = c.rmap[inst.Rb]
		}

		// RLE integration decision (needs renamed base; loads only).
		var itEntry *rle.Entry
		itEntryHandle := -1
		if c.it != nil && inst.IsLoad() && inst.Dest() != isa.Zero {
			sig := rle.Sig(inst.Op, srcPhys[0], inst.Imm)
			itEntry, itEntryHandle = c.it.Lookup(sig, c.cfg.RLE.SquashReuse)
			if itEntry != nil && itEntry.FromSquash &&
				c.readyAt[itEntry.DestPhys] == ^uint64(0) {
				// The squashed producer never executed; there is no value
				// to integrate.
				itEntry, itEntryHandle = nil, -1
			}
		}

		// Destination renaming. Integrated loads adopt the IT entry's
		// physical register instead of allocating one.
		destArch := inst.Dest()
		destPhys, oldDestPhys := noPhys, noPhys
		switch {
		case destArch == isa.Zero:
		case itEntry != nil:
			destPhys = itEntry.DestPhys
			oldDestPhys = c.rmap[destArch]
			c.addRef(destPhys)
			c.rmap[destArch] = destPhys
		default:
			p, ok := c.allocPhys()
			if !ok {
				// Free-list pressure: reclaim a register held only by an
				// IT reference (limbo), one entry per cycle.
				if c.it != nil {
					if e, ok := c.it.EvictOne(); ok {
						c.releaseRef(e.DestPhys)
						moved = true
					}
				}
				return moved
			}
			destPhys = p
			oldDestPhys = c.rmap[destArch]
			c.addRef(destPhys)
			c.rmap[destArch] = destPhys
		}

		// Allocate the ROB entry.
		u := c.rob.push(d.Seq)
		c.uidGen++
		u.uid = c.uidGen
		u.dyn = d
		u.class = inst.Class()
		u.fetchC = fr.fetchC
		u.renameC = c.cycle
		u.srcPhys = srcPhys
		u.nsrc = nsrc
		u.destArch = destArch
		u.destPhys = destPhys
		u.oldDestPhys = oldDestPhys
		c.fetchQPop()
		moved = true

		switch {
		case inst.IsStore():
			c.renameStore(u, steeredStore)
		case inst.IsLoad():
			c.renameLoad(u, itEntry, itEntryHandle)
		case inst.Op == isa.OpNop, inst.Op == isa.OpHalt:
			u.completed = true
			u.completeC = c.cycle
			continue // never enters the issue queue
		}
		if u.isBranch() && u.dyn.Seq == c.waitBranchSeq {
			u.mispredict = true
		}
		if !u.completed {
			c.dispatch(u)
		}
	}
	return moved
}

func (c *Core) renameStore(u *uop, steered bool) {
	c.ssnRename++
	u.ssn = c.ssnRename

	// Stores join the LFST so later loads in the set can wait on them.
	// Intra-set store-store serialization is deliberately not enforced: a
	// single mis-trained pair would otherwise serialize every dynamic
	// instance of a hot store behind itself, cascading unresolved-address
	// windows; implementations weaken this ordering for the same reason.
	_, _, set := c.ss.RenameStore(u.dyn.PC, u.seq)
	u.ssSet = set

	rec := lsq.StoreRec{Seq: u.seq, PC: u.dyn.PC, SSN: u.ssn}
	u.sqSlot = c.sq.Push(rec)
	if steered {
		c.fsq.Push(rec)
		u.inFSQ = true
	}

	// RLE: stores create bypass entries describing the load that would
	// read what they wrote: same base register, store-data register as
	// the value source, the store's own SSN as the vulnerability bound.
	if c.it != nil && u.dyn.Inst.MemBytes() > 0 {
		ldOp, ok := rle.LoadOpFor(u.dyn.Inst.Op)
		if ok && u.srcPhys[1] > 0 {
			sig := rle.Sig(ldOp, u.srcPhys[0], u.dyn.Inst.Imm)
			c.insertIT(u, rle.Entry{
				Sig:      sig,
				DestPhys: u.srcPhys[1], // data input register
				BasePhys: u.srcPhys[0],
				SSN:      u.ssn,
				Kind:     rle.KindBypass,
			})
		}
	}
}

func (c *Core) renameLoad(u *uop, itEntry *rle.Entry, itEntryHandle int) {
	if itEntry != nil {
		c.eliminateLoad(u, itEntry, itEntryHandle)
		return
	}

	// Store-set dependence: wait for the predicted conflicting store.
	if dep, ok := c.ss.RenameLoad(u.dyn.PC); ok {
		if w := c.uopAt(dep); w != nil && !w.completed {
			u.waitSeq, u.waiting = dep, waitStoreExec
		}
	}

	u.lqSlot = c.lq.Push(lsq.LoadRec{Seq: u.seq, PC: u.dyn.PC, Addr: u.dyn.EffAddr, Size: u.dyn.MemBytes})

	if c.cfg.SVW.Enabled {
		u.svw = core.DispatchSVW(c.ssnRetire)
	}
	// SSQ marks every load at dispatch; the FSQ/best-effort split is
	// refined at issue.
	if c.cfg.LSU == LSUSSQ && c.cfg.Rex != RexNone {
		u.marked = true
		u.kind = markSSQBest
	}

	// RLE: non-redundant loads create reuse entries tagged with SSNrename.
	if c.it != nil && u.destPhys != noPhys {
		sig := rle.Sig(u.dyn.Inst.Op, u.srcPhys[0], u.dyn.Inst.Imm)
		c.insertIT(u, rle.Entry{
			Sig:      sig,
			DestPhys: u.destPhys,
			BasePhys: u.srcPhys[0],
			SSN:      c.ssnRename,
			Kind:     rle.KindReuse,
		})
	}
}

// eliminateLoad integrates a redundant load: it never executes, completing
// at rename with the IT entry's register as its value.
func (c *Core) eliminateLoad(u *uop, e *rle.Entry, handle int) {
	u.eliminated = true
	u.elimKind = e.Kind
	u.elimSquash = e.FromSquash
	u.elimHandle = handle
	u.elimSig = e.Sig
	u.completed = true
	u.completeC = c.cycle
	u.marked = c.cfg.Rex != RexNone // natural filter: only eliminated loads re-execute
	switch e.Kind {
	case rle.KindReuse:
		u.kind = markRLEReuse
	case rle.KindBypass:
		u.kind = markRLEBypass
	}
	// §3.4: ld.SVW = IT.SSN. The min-composition with the dispatch window
	// (§3.5) is only needed when eliminated loads are also vulnerable to
	// shared-memory invalidations (NLQsm active).
	if c.cfg.NLQSM.Enabled {
		u.svw = core.EliminatedSVW(e.SSN, c.ssnRetire)
	} else {
		u.svw = e.SSN
	}
	u.lqSlot = c.lq.Push(lsq.LoadRec{
		Seq: u.seq, PC: u.dyn.PC,
		Addr: u.dyn.EffAddr, Size: u.dyn.MemBytes,
		Eliminated: true,
	})
}

// insertIT inserts an entry created by u, tracking the handle for squash
// marking and holding a reference on the value register.
func (c *Core) insertIT(u *uop, e rle.Entry) {
	c.addRef(e.DestPhys)
	handle, evicted, wasEvicted := c.it.Insert(e)
	if wasEvicted {
		c.releaseRef(evicted.DestPhys)
	}
	u.itHandle = handle
	u.itSig = e.Sig
}

// performDrain completes an SSN wrap drain: the pipeline is empty, so clear
// all SSN-bearing state and resume dispatch (paper §3.6).
func (c *Core) performDrain() {
	if c.ssbf != nil {
		c.ssbf.Clear()
	}
	if c.it != nil {
		for _, e := range c.it.Clear() {
			c.releaseRef(e.DestPhys)
		}
	}
	c.wrap.RecordDrain()
	c.stats.WrapDrains = c.wrap.Drains
	c.drainPending = false
	c.drainedAt = c.ssnRename
}
