package pipeline

import (
	"svwsim/internal/core"
	"svwsim/internal/emu"
	"svwsim/internal/isa"
	"svwsim/internal/lsq"
	"svwsim/internal/rle"
)

// markKind classifies why a load is marked for re-execution; the experiment
// harness uses it for the figures' stacked breakdowns.
type markKind uint8

const (
	markNone    markKind = iota
	markNLQSpec          // NLQls: issued past older unresolved store addresses
	markSSQFSQ           // SSQ: steered load, searched the FSQ
	markSSQBest          // SSQ: best-effort or no forwarding
	markRLEReuse
	markRLEBypass
	markNLQSM // in flight during an injected invalidation
)

// waitKind says what a blocked load is waiting on.
type waitKind uint8

const (
	waitNothing   waitKind = iota
	waitStoreExec          // store-set dependence or SQ data-not-ready
	waitStoreCommit
)

const noPhys = -1

// iqState is where a dispatched uop waits in the scheduler (see issue.go).
type iqState uint8

const (
	iqNone    iqState = iota // not in the issue queue: never entered, or issued
	iqWaiting                // a source's producer has not issued (unready > 0)
	iqTimed                  // operands known; its wake event is on the wheel
	iqReady                  // on the scanned ready list
)

// uop is one in-flight instruction: the ROB entry plus all renamed and
// timing state the stages need.
type uop struct {
	dyn *emu.DynInst
	seq uint64
	uid uint64 // unique per dispatch instance; disambiguates refetches

	// class caches dyn.Inst.Class() (set once at rename): the issue loop
	// classifies every queued uop every cycle, and deriving the class from
	// the opcode each time dominated the profile.
	class isa.Class

	// Renaming.
	destArch    isa.Reg
	destPhys    int // noPhys when the instruction writes no register
	oldDestPhys int
	srcPhys     [2]int
	nsrc        int

	// Timing.
	fetchC    uint64
	renameC   uint64
	issueC    uint64
	completeC uint64
	issued    bool
	completed bool

	// Scheduler.
	iqState iqState
	unready uint8  // sources whose producer has not issued (iqWaiting)
	timedAt uint64 // cycle of the pending wake event (iqTimed)

	// Memory.
	ssn       core.SSN // stores
	ssSet     int32    // store-set id (stores)
	addrKnown bool     // stores: STA has resolved
	stdOrder  uint64   // stores: rank of the STA resolution (see writeback)
	inFSQ     bool     // store allocated an FSQ entry
	lqSlot    int      // loads: the load queue slot (see lsq.LoadQueue.At)
	sqSlot    int      // stores: the store queue slot (see lsq.StoreQueue.At)
	waitSeq   uint64
	waiting   waitKind
	execValue uint64 // load value observed at execute (possibly stale)
	fwdSeq    uint64
	fwdOK     bool
	usedBest  bool // forwarded from a best-effort buffer
	ambiguous bool // issued past an older unresolved store address

	// SVW.
	svw    core.SSN
	marked bool
	kind   markKind

	// RLE.
	eliminated bool
	elimKind   rle.Kind
	elimSquash bool // integrated through a squash-marked entry
	elimHandle int  // IT entry the load integrated through
	elimSig    uint64
	itHandle   int    // IT entry created by this uop, or -1
	itSig      uint64 // signature of that entry

	// Re-execution.
	rexDoneAt   uint64 // cycle the rex pipe finishes with this uop; ^0 = pending
	rexFiltered bool
	rexFail     bool

	// Control.
	mispredict bool
}

func (u *uop) isLoad() bool   { return u.class == isa.ClassLoad }
func (u *uop) isStore() bool  { return u.class == isa.ClassStore }
func (u *uop) isBranch() bool { return u.class == isa.ClassBranch }

// schedSrcs is the number of sources the scheduler waits on: a store's
// address generation needs only its base register.
func (u *uop) schedSrcs() int {
	if u.isStore() {
		return 1
	}
	return u.nsrc
}

// rob is a power-of-two ring buffer of uops indexed by contiguous sequence
// numbers; the absence of wrong-path fetch means in-flight seqs are always
// contiguous. Entries are the uop arena: push recycles a slot in place, and
// the per-instance uid stamped at rename is the generation mark that keeps
// stale completion events from touching a recycled slot.
type rob struct {
	buf   []uop
	head  int
	count int
	capN  int // logical capacity (may be below len(buf))
	mask  int
	// headSeq is the seq of the oldest in-flight instruction; only valid
	// when count > 0.
	headSeq uint64
}

func newROB(size int) *rob {
	sz := lsq.RingSize(size)
	return &rob{buf: make([]uop, sz), capN: size, mask: sz - 1}
}

// reset empties the ring for a fresh run, retaining the backing array.
func (r *rob) reset() { r.head, r.count, r.headSeq = 0, 0, 0 }

func (r *rob) full() bool  { return r.count == r.capN }
func (r *rob) empty() bool { return r.count == 0 }
func (r *rob) size() int   { return r.count }

// push allocates the tail entry and returns it.
func (r *rob) push(seq uint64) *uop {
	if r.full() {
		panic("pipeline: ROB overflow")
	}
	if r.count == 0 {
		r.headSeq = seq
	} else if seq != r.headSeq+uint64(r.count) {
		panic("pipeline: non-contiguous ROB push")
	}
	idx := (r.head + r.count) & r.mask
	r.count++
	u := &r.buf[idx]
	*u = uop{}
	u.seq = seq
	u.destPhys, u.oldDestPhys = noPhys, noPhys
	u.itHandle, u.elimHandle = -1, -1
	u.rexDoneAt = ^uint64(0)
	return u
}

// popHead retires the oldest entry.
func (r *rob) popHead() {
	if r.empty() {
		panic("pipeline: ROB underflow")
	}
	r.head = (r.head + 1) & r.mask
	r.count--
	r.headSeq++
}

// slot returns the ring index of the in-flight seq; only valid for an
// in-flight seq.
func (r *rob) slot(seq uint64) int { return (r.head + int(seq-r.headSeq)) & r.mask }

// at returns the in-flight uop with the given seq, or nil.
func (r *rob) at(seq uint64) *uop {
	if idx := seq - r.headSeq; idx < uint64(r.count) {
		return &r.buf[(r.head+int(idx))&r.mask]
	}
	return nil
}

// headUop returns the oldest in-flight uop, or nil.
func (r *rob) headUop() *uop {
	if r.empty() {
		return nil
	}
	return &r.buf[r.head]
}

// tailSeq returns the seq of the youngest in-flight instruction; only valid
// when non-empty.
func (r *rob) tailSeq() uint64 { return r.headSeq + uint64(r.count) - 1 }

// truncateTo squashes every entry with seq > keep. Callers walk entries
// young-to-old themselves before truncation to release resources.
func (r *rob) truncateTo(keep uint64) {
	if r.empty() {
		return
	}
	if keep < r.headSeq {
		r.count = 0
		return
	}
	newCount := int(keep - r.headSeq + 1)
	if newCount < r.count {
		r.count = newCount
	}
}
