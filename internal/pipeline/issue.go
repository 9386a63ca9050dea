package pipeline

import (
	"math/bits"

	"svwsim/internal/core"
	"svwsim/internal/emu"
	"svwsim/internal/isa"
	"svwsim/internal/lsq"
)

// Issue/execute: oldest-first select over the issue queue under per-class
// port limits; loads run the active LSU design's forwarding/disambiguation
// logic, observing speculative memory state.

type issuePorts struct {
	total  int
	intOps int
	loads  int
	stores int
	brs    int
	banks  []bool // D$ bank busy (core-owned scratch, cleared per cycle)
	fsq    bool   // FSQ search port busy (1/cycle)
}

// never is a wake cycle no clock reaches: only an event can end the sleep.
const never = ^uint64(0)

// issueResult is why a try* call did or did not issue its uop.
type issueResult uint8

const (
	issued issueResult = iota
	// retry: a port, a D$ bank or the FSQ search port was taken this
	// cycle; the uop may issue next cycle.
	retry
	// asleep: the uop waits on an older store's data completion or commit
	// (u.waiting), and only that store's event can release it.
	asleep
)

// issue selects oldest-first over the issue queue under the per-class port
// limits. Each dispatched, un-issued uop is in exactly one of three states:
//
//   - waiting: a source's producer has not issued (its readyAt is never).
//     The uop is on that register's waiter list and counts such producers
//     in unready (stores count only the address source; the data register
//     is watched by writeback). startOp releases a register's waiters.
//   - timed: every producer has issued, but the uop cannot issue before
//     max(renameC+SchedDepth, operandsAt) — a future cycle. Its wake event
//     sits on the event wheel (timedAt), and writeback moves it to ready
//     when that cycle comes.
//   - ready: on the ready list, the ROB-slot bitmap scanned oldest-first.
//     A uop stays ready until it issues, even while it retries for a port
//     or sleeps on an older store.
//
// Only ready uops are visited, so a scan sees exactly the uops a full
// queue walk would find eligible, in the same order: select, port and bank
// use are unchanged. A uop woken during a scan has an operand cycle of at
// least cycle+1, so it joins the ready list after the scan, never inside it.
// A readyAt that setPhysValue changes re-files the uops that read it.
//
// Between scans the scheduler sleeps until issueWake: the next cycle after
// a lost port, bank or FSQ search port or a full-width break, and never
// otherwise. Whatever can make a uop issue sooner lowers the wake cycle
// through wakeIssue: a uop becoming ready, a store's STD completion
// (storeDataReady) or commit (commitStore), and a flush.
//
// Asleep loads. A load waiting on an older store's execution or commit
// (u.waiting) stays on the ready list. A scan charges it LoadWaitSS or
// LoadWaitCommit only when it reaches the load before a full-width break or
// a taken load port, exactly as a full walk would. A slept cycle charges
// every load the last scan left asleep once, by the same counters: no uop
// issues before the wake cycle, so in each slept cycle every asleep load
// would reach its wait check with all ports free and find its store still
// pending.
func (c *Core) issue() {
	if c.cycle < c.issueWake {
		c.stats.LoadWaitSS += c.asleepSS
		c.stats.LoadWaitCommit += c.asleepCommit
		return
	}
	for i := range c.bankBusy {
		c.bankBusy[i] = false
	}
	ports := issuePorts{banks: c.bankBusy}
	wake := never
	var asleepSS, asleepCommit uint64
	// The ready bitmap is indexed by ROB slot; oldest-first is slot order
	// from the head, wrapping once.
	lo, hi := c.rob.head, len(c.rob.buf)
scan:
	for pass := 0; pass < 2; pass, lo, hi = pass+1, 0, c.rob.head {
		for i := c.nextReady(lo, hi); i < hi; i = c.nextReady(i+1, hi) {
			if ports.total >= c.cfg.TotalIssue {
				wake = c.cycle + 1
				break scan
			}
			u := &c.rob.buf[i]
			res := retry
			switch u.class {
			case isa.ClassIntALU:
				res = c.tryIssueALU(u, &ports, 1)
			case isa.ClassIntMul:
				res = c.tryIssueALU(u, &ports, c.cfg.MulLat)
			case isa.ClassBranch:
				res = c.tryIssueBranch(u, &ports)
			case isa.ClassLoad:
				res = c.tryIssueLoad(u, &ports)
			case isa.ClassStore:
				res = c.tryIssueStore(u, &ports)
			}
			switch res {
			case issued:
				ports.total++
				c.ready[i>>6] &^= 1 << (i & 63)
				u.iqState = iqNone
				c.iqLen--
			case retry:
				wake = c.cycle + 1
			case asleep:
				if u.isLoad() {
					switch u.waiting {
					case waitStoreExec:
						asleepSS++
					case waitStoreCommit:
						asleepCommit++
					}
				}
			}
		}
	}
	c.issueWake, c.asleepSS, c.asleepCommit = wake, asleepSS, asleepCommit
}

// nextReady returns the first ROB slot in [from, to) on the ready list, or
// to when there is none.
func (c *Core) nextReady(from, to int) int {
	for from < to {
		if w := c.ready[from>>6] >> (from & 63); w != 0 {
			return min(from+bits.TrailingZeros64(w), to)
		}
		from = (from | 63) + 1
	}
	return to
}

// wakeIssue lowers the scheduler's wake cycle to at: an event that may let
// a queued uop issue at cycle at has happened.
func (c *Core) wakeIssue(at uint64) {
	c.issueWake = min(c.issueWake, at)
}

// dispatch enters a renamed uop into the issue queue: on the waiter list
// of every source whose producer has not issued, or else timed or ready.
func (c *Core) dispatch(u *uop) {
	c.iqLen++
	for i, n := 0, u.schedSrcs(); i < n; i++ {
		if p := u.srcPhys[i]; c.readyAt[p] == never {
			c.waiters[p] = append(c.waiters[p], eventRec{seq: u.seq, uid: u.uid})
			u.unready++
		}
	}
	if u.unready > 0 {
		u.iqState = iqWaiting
		return
	}
	c.file(u)
}

// file places a uop whose producers have all issued: ready if it can issue
// at the current cycle's scan (or, when that scan has run, the next one),
// else timed until it can.
func (c *Core) file(u *uop) {
	at := max(u.renameC+uint64(c.cfg.SchedDepth), c.operandsAt(u))
	if at > c.cycle {
		u.iqState, u.timedAt = iqTimed, at
		c.scheduleEvent(at, u)
		return
	}
	c.makeReady(u)
}

// makeReady puts u on the ready list and wakes the scheduler.
func (c *Core) makeReady(u *uop) {
	i := c.rob.slot(u.seq)
	c.ready[i>>6] |= 1 << (i & 63)
	u.iqState = iqReady
	c.wakeIssue(c.cycle)
}

// clearReady takes u off the ready list, if it is on it.
func (c *Core) clearReady(u *uop) {
	if u.iqState == iqReady {
		i := c.rob.slot(u.seq)
		c.ready[i>>6] &^= 1 << (i & 63)
	}
}

// unqueue takes an un-issued uop out of the scheduler (flush).
func (c *Core) unqueue(u *uop) {
	c.clearReady(u)
	if u.iqState != iqNone {
		u.iqState = iqNone
		c.iqLen--
	}
}

// timedWake handles a timed uop's wake event; a uop re-filed since the
// event was scheduled ignores it.
func (c *Core) timedWake(u *uop) {
	if u.iqState == iqTimed && u.timedAt == c.cycle {
		c.makeReady(u)
	}
}

// setReadyAt records the cycle p's value becomes available. The first time
// (the producer's issue) it releases p's waiters. A later change re-files
// every queued uop that reads p, since its wake cycle moved.
func (c *Core) setReadyAt(p int, at uint64) {
	old := c.readyAt[p]
	c.readyAt[p] = at
	if old == never {
		for _, w := range c.waiters[p] {
			u := c.uopAt(w.seq)
			if u == nil || u.uid != w.uid {
				continue // squashed since it registered
			}
			if u.unready--; u.unready == 0 {
				c.file(u)
			}
		}
		c.waiters[p] = c.waiters[p][:0]
		return
	}
	for seq := c.rob.headSeq; !c.rob.empty() && seq <= c.rob.tailSeq(); seq++ {
		u := c.uopAt(seq)
		if (u.iqState != iqTimed && u.iqState != iqReady) || !u.reads(p) {
			continue
		}
		c.clearReady(u)
		c.file(u)
	}
}

// operandsAt implements the wakeup rule: a consumer may issue at cycle t if
// each producer's value arrives by the consumer's execute start (t +
// RegReadDepth), modeling full bypassing. It returns the earliest such t,
// or never while a producer has not issued. Stores issue their address
// generation as soon as the base register is ready (split STA/STD); the
// data register is watched separately.
func (c *Core) operandsAt(u *uop) uint64 {
	var ready uint64
	for i, n := 0, u.schedSrcs(); i < n; i++ {
		r := c.readyAt[u.srcPhys[i]]
		if r == never {
			return never
		}
		ready = max(ready, r)
	}
	if rrd := uint64(c.cfg.RegReadDepth); ready > rrd {
		return ready - rrd
	}
	return 0
}

func (c *Core) startOp(u *uop, completeAt uint64) {
	u.issued = true
	u.issueC = c.cycle
	u.completeC = completeAt
	if u.destPhys != noPhys {
		c.setReadyAt(u.destPhys, completeAt)
	}
	c.scheduleEvent(completeAt, u)
}

func (c *Core) tryIssueALU(u *uop, p *issuePorts, lat int) issueResult {
	if p.intOps >= c.cfg.IntIssue {
		return retry
	}
	p.intOps++
	c.startOp(u, c.cycle+uint64(c.cfg.RegReadDepth)+uint64(lat))
	return issued
}

func (c *Core) tryIssueBranch(u *uop, p *issuePorts) issueResult {
	if p.brs >= c.cfg.BranchIssue {
		return retry
	}
	p.brs++
	c.startOp(u, c.cycle+uint64(c.cfg.RegReadDepth)+1)
	return issued
}

// tryIssueStore issues a store's address generation (STA). The data half
// (STD) completes independently when the data register arrives; the store
// counts as executed only when both halves are done.
func (c *Core) tryIssueStore(u *uop, p *issuePorts) issueResult {
	if p.stores >= c.cfg.StoreIssue {
		return retry
	}
	if u.waiting == waitStoreExec && c.storeStillPending(u.waitSeq) {
		return asleep // intra-store-set serialization
	}
	u.waiting = waitNothing
	p.stores++
	u.issued = true
	u.issueC = c.cycle
	u.completeC = c.cycle + uint64(c.cfg.RegReadDepth) + 1 // STA resolution
	// Publish the address with its visibility time — the AGU output
	// broadcasts to the disambiguation logic as it is produced, so a load
	// executing in the same cycle a store's address generation finishes
	// sees it. If the data register is already scheduled, its arrival time
	// is known too (STD completes with the STA); otherwise the data half
	// finishes when the producer does.
	d := u.dyn
	addrAt := c.cycle + uint64(c.cfg.RegReadDepth)
	dataAt := ^uint64(0)
	if r := c.readyAt[u.srcPhys[1]]; r != ^uint64(0) {
		dataAt = u.completeC
		if r > dataAt {
			dataAt = r
		}
	}
	if rec := c.sq.Find(u.seq); rec != nil {
		rec.Addr, rec.Size, rec.AddrKnownAt = d.EffAddr, d.MemBytes, addrAt
		rec.Data, rec.DataKnownAt = d.StoreVal, dataAt
	}
	if u.inFSQ {
		if rec := c.fsq.Find(u.seq); rec != nil {
			rec.Addr, rec.Size, rec.AddrKnownAt = d.EffAddr, d.MemBytes, addrAt
			rec.Data, rec.DataKnownAt = d.StoreVal, dataAt
		}
	}
	c.scheduleEvent(u.completeC, u)
	return issued
}

// storeStillPending reports whether the store with seq is in flight and has
// not yet executed.
func (c *Core) storeStillPending(seq uint64) bool {
	w := c.uopAt(seq)
	return w != nil && !w.completed
}

// storeStillInFlight reports whether the store with seq has not committed.
func (c *Core) storeStillInFlight(seq uint64) bool {
	return c.uopAt(seq) != nil
}

func (c *Core) tryIssueLoad(u *uop, p *issuePorts) issueResult {
	if p.loads >= c.cfg.LoadIssue {
		return retry
	}
	switch u.waiting {
	case waitStoreExec:
		if c.storeStillPending(u.waitSeq) {
			c.stats.LoadWaitSS++
			return asleep
		}
		u.waiting = waitNothing
	case waitStoreCommit:
		if c.storeStillInFlight(u.waitSeq) {
			c.stats.LoadWaitCommit++
			return asleep
		}
		u.waiting = waitNothing
	}

	d := u.dyn
	bank := c.hier.DCache.Bank(d.EffAddr, c.cfg.DBanks)
	if p.banks[bank] {
		return retry // bank conflict
	}
	steered := c.cfg.LSU == LSUSSQ && c.steer.LoadSteered(d.PC)
	if steered && p.fsq {
		return retry // single FSQ search port
	}

	execStart := c.cycle + uint64(c.cfg.RegReadDepth)
	var completeAt uint64
	switch c.cfg.LSU {
	case LSUBaseline, LSUNLQ:
		res := c.sq.Search(u.seq, d.EffAddr, d.MemBytes, execStart)
		u.ambiguous = res.AmbiguousOlder
		switch res.Kind {
		case lsq.SearchPartial:
			u.waitSeq, u.waiting = res.StoreSeq, waitStoreCommit
			c.stats.LoadWaitCommit++
			return asleep
		case lsq.SearchDataWait:
			u.waitSeq, u.waiting = res.StoreSeq, waitStoreExec
			c.stats.LoadWaitData++
			return asleep
		case lsq.SearchForward:
			u.execValue = emu.ExtendLoad(d.Inst, res.Value)
			u.fwdSeq, u.fwdOK = res.StoreSeq, true
			c.stats.SQForwards++
			completeAt = execStart + uint64(c.cfg.LoadLat)
			if c.cfg.SVW.Enabled && c.cfg.SVW.UpdateOnForward {
				u.svw = core.ForwardSVW(u.svw, res.StoreSSN)
			}
		default: // miss: read the committed image through the cache
			u.execValue = c.readSpecMem(d)
			completeAt = c.cacheLoadComplete(d.EffAddr, execStart)
		}
		if c.cfg.LSU == LSUNLQ && c.cfg.Rex != RexNone && u.ambiguous {
			// NLQls natural filter: issued past unresolved store addresses.
			u.marked = true
			u.kind = markNLQSpec
		}

	case LSUSSQ:
		if steered {
			p.fsq = true
			u.kind = markSSQFSQ
			res := c.fsq.Search(u.seq, d.EffAddr, d.MemBytes, execStart)
			switch res.Kind {
			case lsq.SearchPartial:
				u.waitSeq, u.waiting = res.StoreSeq, waitStoreCommit
				return asleep
			case lsq.SearchDataWait:
				u.waitSeq, u.waiting = res.StoreSeq, waitStoreExec
				return asleep
			case lsq.SearchForward:
				u.execValue = emu.ExtendLoad(d.Inst, res.Value)
				u.fwdSeq, u.fwdOK = res.StoreSeq, true
				c.stats.SQForwards++
				completeAt = execStart + uint64(c.cfg.LoadLat)
				if c.cfg.SVW.Enabled && c.cfg.SVW.UpdateOnForward {
					// Only FSQ forwarding maintains the invariants the
					// update requires (§4.2); best-effort does not.
					u.svw = core.ForwardSVW(u.svw, res.StoreSSN)
				}
			default:
				u.execValue = c.readSpecMem(d)
				completeAt = c.cacheLoadComplete(d.EffAddr, execStart)
			}
		} else {
			if data, seq, ok := c.fbs[bank].Probe(u.seq, d.EffAddr, d.MemBytes); ok {
				u.execValue = emu.ExtendLoad(d.Inst, data)
				u.fwdSeq, u.fwdOK = seq, true
				u.usedBest = true
				completeAt = execStart + uint64(c.cfg.LoadLat)
			} else {
				u.execValue = c.readSpecMem(d)
				completeAt = c.cacheLoadComplete(d.EffAddr, execStart)
			}
		}
	}

	p.banks[bank] = true
	p.loads++

	// Update the LQ view for the conventional ordering search.
	if rec := c.lq.Find(u.seq); rec != nil {
		rec.Issued = true
		rec.FwdSeq, rec.FwdOK = u.fwdSeq, u.fwdOK
	}
	c.startOp(u, completeAt)
	return issued
}

// readSpecMem returns the load value visible in committed memory right now —
// the value a load observes when no forwarding path covers it. If an older
// uncommitted store to the address exists, this value is stale and the load
// has mis-speculated.
func (c *Core) readSpecMem(d *emu.DynInst) uint64 {
	raw := c.commitMem.Read(d.EffAddr, d.MemBytes)
	return emu.ExtendLoad(d.Inst, raw)
}

// cacheLoadComplete models the D$ access timing for a load starting its
// access at execStart.
func (c *Core) cacheLoadComplete(addr uint64, execStart uint64) uint64 {
	done := c.hier.DCache.Access(addr, execStart)
	min := execStart + uint64(c.cfg.LoadLat)
	if done < min {
		done = min
	}
	return done
}
