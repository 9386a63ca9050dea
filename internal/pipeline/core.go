package pipeline

import (
	"fmt"

	"svwsim/internal/bpred"
	"svwsim/internal/cache"
	"svwsim/internal/core"
	"svwsim/internal/emu"
	"svwsim/internal/lsq"
	"svwsim/internal/memimage"
	"svwsim/internal/prog"
	"svwsim/internal/rle"
	"svwsim/internal/storesets"
)

// Core is one simulated machine bound to one program run at a time; Reset
// rebinds it to the next run, clearing its substrates in place (see Reset).
//
// The steady-state cycle loop is allocation-free: uops recycle through the
// ROB ring, oracle records through the stream's arena, completion events
// and timed wakes through the event wheel's buckets, scheduler waiters
// through per-register lists truncated in place, and the load/store queues
// are fixed-capacity rings. The only allocations after warm-up are
// amortized growth events (a bucket or waiter list reaching a new
// high-water mark, wheel expansion under extreme bus contention) and
// copy-on-write page copies on a run's first write to a page.
type Core struct {
	cfg Config

	// Oracle side: the functional emulator's record stream.
	stream *emu.Stream

	// Committed architectural memory: advanced only at store commit. Loads
	// executing speculatively read this image (plus forwarding), which is
	// how stale values arise.
	commitMem *memimage.Image

	// Structures.
	rob   *rob
	sq    *lsq.StoreQueue // conventional SQ / SSQ's RSQ
	fsq   *lsq.StoreQueue // SSQ only
	lq    *lsq.LoadQueue
	fbs   []*lsq.FwdBuffer // per bank, SSQ only
	steer *lsq.Steering    // SSQ only

	// Renaming.
	rmap     [32]int
	freeList []int
	refCnt   []int
	physVal  []uint64
	readyAt  []uint64 // value-available cycle per phys reg

	// Scheduler (see issue.go): IQ occupancy, the ready list as a bitmap
	// over ROB slots, and per physical register the uops waiting on its
	// producer's issue.
	iqLen   int
	ready   []uint64
	waiters [][]eventRec
	// issueWake is the first cycle the next IQ scan can issue anything
	// (see issue); asleepSS and asleepCommit count the loads the last scan
	// left asleep on a store, by the wait counter each slept cycle charges.
	issueWake    uint64
	asleepSS     uint64
	asleepCommit uint64

	// Completion events, bucketed by cycle on a reusable wheel.
	events eventWheel
	// Stores whose address resolved but whose data register is in flight.
	pendingSTD []eventRec

	// Fetch: a fixed ring of FetchWidth*(FrontDepth+1) slots.
	fetchQ        []fetchRec
	fetchHead     int
	fetchLen      int
	fetchMask     int
	pendingRec    *emu.DynInst
	fetchStallTil uint64
	waitBranchSeq uint64 // seq of unresolved mispredicted branch, or ^0
	lastFetchLine uint64
	haltSeen      bool

	// SSN state.
	ssnRename    core.SSN
	ssnRetire    core.SSN
	drainPending bool
	// drainedAt remembers the SSN at the last completed wrap drain so the
	// store that triggered it can proceed without re-arming the drain.
	drainedAt core.SSN
	wrap      core.WrapControl

	// Re-execution engine.
	rexHead     uint64 // seq of next instruction to pass the rex pipe
	rexStoreBuf []uint64
	// portsUsed counts D$ retirement-port grants this cycle: store commits
	// plus re-execution read launches. Commit runs first each cycle,
	// giving it priority for the shared port, per the paper.
	portsUsed int

	// Substrates this run uses (nil when the configuration has none), and
	// every one the core has built (see Reset).
	kept kept
	hier *cache.Hierarchy
	bp   *bpred.Predictor
	ss   *storesets.StoreSets
	ssbf *core.SSBF
	spct *core.SPCT
	it   *rle.Table

	// Run state.
	cycle          uint64
	uidGen         uint64
	done           bool
	stats          Stats
	flushPend      bool
	flushKeep      uint64 // squash everything with seq > flushKeep
	lastStoreLine  uint64
	committedTotal uint64 // includes warm-up commits
	warmDone       bool
	warmCycle      uint64 // cycle at which measurement began

	// Reusable scratch (never escapes a call).
	bankBusy  []bool      // per-cycle D$ bank occupancy (issue)
	refWork   []int       // releaseRef work list
	itScratch []rle.Entry // InvalidateByBase result buffer
}

type eventRec struct {
	seq uint64
	uid uint64
}

type fetchRec struct {
	dyn    *emu.DynInst
	fetchC uint64
}

// --- Event wheel ---------------------------------------------------------

// eventWheel buckets completion events by cycle on a power-of-two ring.
// Invariant: a non-empty slot holds events for exactly one cycle (recorded
// in the slot), so two cycles whose indices collide — they differ by a
// multiple of the wheel size — force a growth instead of mixing. Buckets are
// reused via [:0] truncation; after the wheel reaches the machine's event
// horizon (memory latency plus worst-case bus queueing), scheduling and
// draining never allocate.
type eventWheel struct {
	slots []eventSlot
	mask  uint64
}

type eventSlot struct {
	cycle uint64
	evs   []eventRec
}

const initialWheelSize = 1024

func (w *eventWheel) init() {
	if w.slots == nil {
		w.slots = make([]eventSlot, initialWheelSize)
		w.mask = initialWheelSize - 1
	}
}

// reset empties every bucket, retaining their backing arrays.
func (w *eventWheel) reset() {
	for i := range w.slots {
		w.slots[i].evs = w.slots[i].evs[:0]
	}
}

// schedule adds an event for the given cycle, growing the wheel when the
// target bucket is occupied by a different still-pending cycle. A bucket
// whose cycle is already behind now was skipped by a flush (the flush
// squashed every uop those events referenced, so draining them would be a
// no-op); it is discarded. A bucket for a different future cycle — the
// event horizon exceeds the wheel — forces a growth instead of mixing.
func (w *eventWheel) schedule(now, cycle uint64, ev eventRec) {
	s := &w.slots[cycle&w.mask]
	for len(s.evs) > 0 && s.cycle != cycle {
		if s.cycle < now {
			s.evs = s.evs[:0]
			break
		}
		w.grow()
		s = &w.slots[cycle&w.mask]
	}
	s.cycle = cycle
	s.evs = append(s.evs, ev)
}

// take returns (and logically empties) the bucket for cycle. The returned
// slice stays valid through the caller's drain because no event is ever
// scheduled for the cycle being drained.
func (w *eventWheel) take(cycle uint64) []eventRec {
	s := &w.slots[cycle&w.mask]
	if len(s.evs) == 0 || s.cycle != cycle {
		return nil
	}
	evs := s.evs
	s.evs = s.evs[:0]
	return evs
}

// next returns the first cycle in [from, limit) with a due bucket, or
// limit when there is none. It looks at most one wheel's worth of cycles
// ahead — a bucket further out shares its slot with a nearer cycle — so a
// farther limit comes back clamped to that horizon.
func (w *eventWheel) next(from, limit uint64) uint64 {
	limit = min(limit, from+uint64(len(w.slots)))
	for cy := from; cy < limit; cy++ {
		if s := &w.slots[cy&w.mask]; len(s.evs) > 0 && s.cycle == cy {
			return cy
		}
	}
	return limit
}

// grow doubles the wheel, redistributing occupied buckets.
func (w *eventWheel) grow() {
	old := w.slots
	w.slots = make([]eventSlot, 2*len(old))
	w.mask = uint64(len(w.slots)) - 1
	for i := range old {
		if len(old[i].evs) == 0 {
			continue
		}
		s := &w.slots[old[i].cycle&w.mask]
		s.cycle = old[i].cycle
		s.evs = append(s.evs, old[i].evs...)
	}
}

// --- Construction --------------------------------------------------------

// New builds a core over a fresh instance of the program.
func New(cfg Config, p *prog.Program) *Core {
	c := new(Core)
	c.Reset(cfg, p)
	return c
}

// Reset rebinds the core to a configuration and a fresh instance of the
// program. Nothing of the previous run survives, but its allocations do:
// the ROB ring, the load/store queue rings, the register files and waiter
// lists, the event wheel, the oracle stream's record arena, the scratch
// buffers, and every substrate the core has built (cache hierarchy,
// branch predictor, store-sets, SPCT, SSBF, IT, SSQ steering and forwarding
// buffers). A substrate whose geometry matches the new configuration is
// cleared in place — its Reset is exactly equivalent to building it — and
// only one whose geometry changed is built again. A substrate the new
// configuration does not use is kept aside for a later run that does. The
// program's memory images are copy-on-write over its shared initial image.
//
// A Reset core is observationally identical to a New one — same cycles,
// same stats, byte-identical study output — which the determinism suite
// asserts; the experiment engine relies on it to pool cores across runs
// and engines instead of constructing one per job.
func (c *Core) Reset(cfg Config, p *prog.Program) {
	c.rebind(cfg, p, emu.New(p.NewImage(), p.Entry), p.NewImage(), false)
}

// kept holds every substrate and optional ring a core has built, whether
// or not the current configuration uses it, so a later run of the same
// geometry reuses it.
type kept struct {
	hier  *cache.Hierarchy
	bp    *bpred.Predictor
	ss    *storesets.StoreSets
	spct  *core.SPCT
	ssbf  *core.SSBF
	it    *rle.Table
	steer *lsq.Steering
	fsq   *lsq.StoreQueue
	fbs   []*lsq.FwdBuffer
}

// rebind is the body of Reset and ResetWindow. em is the oracle emulator,
// already positioned where the run starts, and commitMem the matching
// committed memory image. With warm set and a previous run to inherit
// from, the trained substrates and the cycle counter carry over (see
// ResetWindow); otherwise every substrate starts in its built state.
func (c *Core) rebind(cfg Config, p *prog.Program, em *emu.Emulator, commitMem *memimage.Image, warm bool) {
	em.SetDecodeTable(p.Base, p.Decoded())

	old := *c
	*c = Core{
		cfg:           cfg,
		commitMem:     commitMem,
		wrap:          core.WrapControl{Bits: cfg.SVW.SSNBits},
		waitBranchSeq: ^uint64(0),
		kept:          old.kept,
	}
	k := &c.kept
	warm = warm && k.hier != nil
	if warm {
		c.cycle, c.warmCycle = old.cycle, old.cycle
	}

	// Substrates. A warm window keeps what they learned and restarts
	// only their counters; the SSBF and IT, which hold SSNs and register
	// numbers of the previous window, always start empty.
	switch {
	case k.hier == nil || k.hier.Config() != cfg.Mem:
		k.hier = cache.NewHierarchy(cfg.Mem)
	case warm:
		k.hier.ResetStats()
	default:
		k.hier.Reset()
	}
	switch {
	case k.bp == nil || k.bp.Config() != cfg.BP:
		k.bp = bpred.New(cfg.BP)
	case warm:
		k.bp.ResetStats()
	default:
		k.bp.Reset()
	}
	switch {
	case k.ss == nil || k.ss.Config() != cfg.SS:
		k.ss = storesets.New(cfg.SS)
	case warm:
		k.ss.FlushInflight()
		k.ss.ResetStats()
	default:
		k.ss.Reset()
	}
	switch {
	case k.spct == nil || k.spct.Config() != cfg.SPCT:
		k.spct = core.NewSPCT(cfg.SPCT)
	case !warm:
		k.spct.Reset()
	}
	c.hier, c.bp, c.ss, c.spct = k.hier, k.bp, k.ss, k.spct
	if cfg.SVW.Enabled {
		if k.ssbf == nil || k.ssbf.Config() != cfg.SVW.SSBF {
			k.ssbf = core.NewSSBF(cfg.SVW.SSBF)
		} else {
			k.ssbf.Reset()
		}
		c.ssbf = k.ssbf
	}
	if cfg.RLE.Enabled {
		if k.it == nil || k.it.Config() != cfg.RLE.IT {
			k.it = rle.New(cfg.RLE.IT)
		} else {
			k.it.Reset()
		}
		c.it = k.it
	}
	if cfg.LSU == LSUSSQ {
		switch {
		case k.steer == nil:
			k.steer = lsq.NewSteering()
		case !warm:
			k.steer.Reset()
		}
		c.steer = k.steer
		k.fsq = resetStoreQueue(k.fsq, cfg.FSQSize)
		c.fsq = k.fsq
		if len(k.fbs) == cfg.DBanks {
			for _, fb := range k.fbs {
				fb.Reset(cfg.FBSize)
			}
		} else {
			k.fbs = make([]*lsq.FwdBuffer, cfg.DBanks)
			for i := range k.fbs {
				k.fbs[i] = lsq.NewFwdBuffer(cfg.FBSize)
			}
		}
		c.fbs = k.fbs
	}

	// Oracle stream: recycle the record arena.
	if old.stream != nil {
		c.stream = old.stream
		c.stream.Reset(em)
	} else {
		c.stream = emu.NewStream(em)
	}

	// ROB ring.
	if old.rob != nil && old.rob.capN == cfg.ROBSize {
		c.rob = old.rob
		c.rob.reset()
	} else {
		c.rob = newROB(cfg.ROBSize)
	}

	// Load/store queue rings.
	c.sq = resetStoreQueue(old.sq, cfg.SQSize)
	c.lq = resetLoadQueue(old.lq, cfg.LQSize)

	// Event wheel and scratch buffers.
	c.events = old.events
	c.events.init()
	c.events.reset()
	c.pendingSTD = old.pendingSTD[:0]
	c.rexStoreBuf = old.rexStoreBuf[:0]
	c.refWork = old.refWork[:0]
	c.itScratch = old.itScratch[:0]
	if len(old.bankBusy) == cfg.DBanks {
		c.bankBusy = old.bankBusy
	} else {
		c.bankBusy = make([]bool, cfg.DBanks)
	}

	// Fetch ring.
	fcap := cfg.FetchWidth * (cfg.FrontDepth + 1)
	if fsz := lsq.RingSize(fcap); len(old.fetchQ) == fsz {
		c.fetchQ = old.fetchQ
	} else {
		c.fetchQ = make([]fetchRec, fsz)
	}
	c.fetchMask = len(c.fetchQ) - 1
	for i := range c.fetchQ {
		c.fetchQ[i] = fetchRec{}
	}

	// Physical register file. Register 0 is pinned: it backs architectural
	// zero and the initial (all-zero) mappings of every architectural
	// register.
	c.refCnt = resizeInts(old.refCnt, cfg.PhysRegs)
	c.physVal = resizeU64s(old.physVal, cfg.PhysRegs)
	c.readyAt = resizeU64s(old.readyAt, cfg.PhysRegs)
	c.ready = resizeU64s(old.ready, (len(c.rob.buf)+63)/64)
	c.waiters = old.waiters
	if len(c.waiters) != cfg.PhysRegs {
		c.waiters = make([][]eventRec, cfg.PhysRegs)
	}
	for i := range c.waiters {
		c.waiters[i] = c.waiters[i][:0]
	}
	c.refCnt[0] = 1 << 30 // pinned
	for i := range c.rmap {
		c.rmap[i] = 0
	}
	c.freeList = old.freeList[:0]
	for p := cfg.PhysRegs - 1; p >= 1; p-- {
		c.freeList = append(c.freeList, p)
	}
	if cfg.WarmupInsts == 0 {
		c.warmDone = true
	}
}

func resetStoreQueue(q *lsq.StoreQueue, capacity int) *lsq.StoreQueue {
	if q != nil && q.Cap() == capacity {
		q.Reset()
		return q
	}
	return lsq.NewStoreQueue(capacity)
}

func resetLoadQueue(q *lsq.LoadQueue, capacity int) *lsq.LoadQueue {
	if q != nil && q.Cap() == capacity {
		q.Reset()
		return q
	}
	return lsq.NewLoadQueue(capacity)
}

func resizeInts(s []int, n int) []int {
	if len(s) != n {
		return make([]int, n)
	}
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeU64s(s []uint64, n int) []uint64 {
	if len(s) != n {
		return make([]uint64, n)
	}
	for i := range s {
		s[i] = 0
	}
	return s
}

// Stats returns the run statistics (valid after Run).
func (c *Core) Stats() *Stats { return &c.stats }

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// CommittedMem exposes the committed architectural memory image. After a
// run, it must equal the image a pure functional execution of the same
// number of instructions produces — the end-to-end correctness oracle used
// by the integration tests.
func (c *Core) CommittedMem() *memimage.Image { return c.commitMem }

// CommittedTotal reports all commits including warm-up.
func (c *Core) CommittedTotal() uint64 { return c.committedTotal }

// Run simulates until MaxInsts instructions commit, the program halts, or
// MaxCycles elapse. It returns an error only for internal inconsistencies
// (oracle stream errors), never for program behavior.
func (c *Core) Run() error {
	for !c.done {
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			return fmt.Errorf("pipeline: cycle limit %d hit at %d committed insts (deadlock?)\n%s",
				c.cfg.MaxCycles, c.stats.Committed, c.debugState())
		}
		c.step()
		if err := c.stream.Err(); err != nil {
			return err
		}
	}
	c.finalizeStats()
	return nil
}

// step advances one cycle. Stages run commit-first (reverse pipeline order)
// so each stage sees the previous cycle's state of its upstream neighbor.
//
// A step in which no stage changed anything — commit blocked, rex stalled,
// no event bucket due, no store data arrived, issue asleep, rename and fetch
// blocked — leaves the machine exactly as it found it, so every following
// step repeats it until a timed condition comes due (see idleUntil). The
// clock jumps straight there, charging the skipped cycles the per-cycle
// counters those steps would have charged.
func (c *Core) step() {
	c.portsUsed = 0
	stall := c.commit()
	if c.flushPend {
		c.doFlush()
		c.cycle++
		return
	}
	if c.done {
		return
	}
	rexHead := c.rexHead
	c.rex()
	moved := c.writeback() || c.rexHead != rexHead
	if c.flushPend { // ordering violation found at store resolve
		c.doFlush()
		c.cycle++
		return
	}
	moved = moved || c.cycle >= c.issueWake
	c.issue()
	moved = c.rename() || moved
	moved = c.fetch() || moved
	if c.cfg.NLQSM.Enabled && due(c.cycle, c.cfg.NLQSM.IntervalCycles) {
		c.invalidate()
		moved = true
	}
	if due(c.cycle, c.cfg.SS.ClearInterval) {
		c.ss.Clear()
		moved = true
	}
	c.cycle++
	if stall != stallNone && !moved {
		c.skipIdle(stall)
	}
}

// due reports whether a periodic action with period iv (0 = never) fires at
// cycle.
func due(cycle, iv uint64) bool {
	return iv > 0 && cycle > 0 && cycle%iv == 0
}

// nextDue returns the first cycle at or after cycle at which a periodic
// action with period iv fires, or never.
func nextDue(cycle, iv uint64) uint64 {
	if iv == 0 {
		return never
	}
	return (cycle + iv - 1) / iv * iv
}

// skipIdle follows a step that changed nothing and ended with commit
// blocked for stall: it advances the clock to idleUntil, charging each
// skipped cycle the commit stall and the sleeping-load waits.
func (c *Core) skipIdle(stall stallKind) {
	to := c.idleUntil()
	if to <= c.cycle {
		return
	}
	n := to - c.cycle
	c.countStall(stall, c.rob.headUop(), n)
	c.stats.LoadWaitSS += n * c.asleepSS
	c.stats.LoadWaitCommit += n * c.asleepCommit
	c.cycle = to
}

// idleUntil returns the first cycle, from the current one on, at which a
// timed condition can let a stage act on the unchanged machine: the next
// due event bucket, the issue wake cycle, the end of a fetch stall, the
// front-end head reaching rename, the ROB head clearing the commit depth or
// the rex pipe, a pending store's data arriving, a store-set clear or NLQsm
// injection, or the cycle limit. A bound the step just taken had already
// passed was not what held it back, and is ignored.
func (c *Core) idleUntil() uint64 {
	now := c.cycle
	to := c.issueWake
	bound := func(at uint64) {
		if at >= now {
			to = min(to, at)
		}
	}
	bound(c.cfg.MaxCycles)
	bound(c.fetchStallTil)
	if c.fetchLen > 0 {
		bound(c.fetchQFront().fetchC + uint64(c.cfg.FrontDepth))
	}
	if u := c.rob.headUop(); u != nil {
		bound(u.completeC + c.cfg.commitLat())
		bound(u.rexDoneAt)
	}
	for _, ev := range c.pendingSTD {
		if u := c.uopAt(ev.seq); u != nil && u.uid == ev.uid {
			bound(c.readyAt[u.srcPhys[1]])
		}
	}
	to = min(to, nextDue(now, c.cfg.SS.ClearInterval))
	if c.cfg.NLQSM.Enabled {
		to = min(to, nextDue(now, c.cfg.NLQSM.IntervalCycles))
	}
	return c.events.next(now, to)
}

func (c *Core) finalizeStats() {
	c.stats.Cycles = c.cycle - c.warmCycle
	c.stats.BranchAccuracy = c.bp.Accuracy()
	c.stats.ICacheMissRate = c.hier.ICache.MissRate()
	c.stats.DCacheMissRate = c.hier.DCache.MissRate()
	c.stats.L2MissRate = c.hier.L2.MissRate()
	if c.ssbf != nil {
		c.stats.SSBFLookups = c.ssbf.Lookups
		c.stats.SSBFPositives = c.ssbf.Positives
	}
	c.stats.WrapDrains = c.wrap.Drains
}

// requestFlush records a squash of everything with seq > keepSeq; when a
// flush is already pending, the older keep point wins.
func (c *Core) requestFlush(keepSeq uint64) {
	if !c.flushPend || keepSeq < c.flushKeep {
		c.flushKeep = keepSeq
	}
	c.flushPend = true
}

// uopAt returns the in-flight uop with seq, or nil.
func (c *Core) uopAt(seq uint64) *uop { return c.rob.at(seq) }

// scheduleEvent registers a completion event.
func (c *Core) scheduleEvent(cycle uint64, u *uop) {
	c.events.schedule(c.cycle, cycle, eventRec{seq: u.seq, uid: u.uid})
}

// --- Physical register management ----------------------------------------

func (c *Core) allocPhys() (int, bool) {
	n := len(c.freeList)
	if n == 0 {
		return noPhys, false
	}
	p := c.freeList[n-1]
	c.freeList = c.freeList[:n-1]
	c.refCnt[p] = 0
	c.readyAt[p] = never
	c.waiters[p] = c.waiters[p][:0]
	return p, true
}

// addRef pins a physical register (mapping reference or IT reference).
func (c *Core) addRef(p int) {
	if p > 0 {
		c.refCnt[p]++
	}
}

// releaseRef drops a reference; registers free when the count reaches zero,
// which also invalidates IT entries whose signature depends on them
// (cascading, since those entries hold references of their own). The work
// list and IT result buffer are core-owned scratch, reused across calls.
func (c *Core) releaseRef(p int) {
	work := append(c.refWork[:0], p)
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		if q <= 0 {
			continue
		}
		c.refCnt[q]--
		if c.refCnt[q] > 0 {
			continue
		}
		if c.refCnt[q] < 0 {
			panic("pipeline: negative physical register refcount")
		}
		c.freeList = append(c.freeList, q)
		if c.it != nil {
			c.itScratch = c.it.InvalidateByBase(q, c.itScratch[:0])
			for _, e := range c.itScratch {
				work = append(work, e.DestPhys)
			}
		}
	}
	c.refWork = work[:0]
}

// setPhysValue records the value produced into p (used by squash reuse and
// eliminated-load verification).
func (c *Core) setPhysValue(p int, v uint64, when uint64) {
	if p > 0 {
		c.physVal[p] = v
		if c.readyAt[p] != when {
			c.setReadyAt(p, when)
		}
	}
}
