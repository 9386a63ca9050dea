// Package lsq provides the load/store queue machinery shared by the three
// load-store unit designs the paper models (Fig. 2):
//
//   - the conventional unit: an age-ordered associative store queue searched
//     by executing loads, and a load queue searched by executing stores to
//     detect premature loads;
//   - the non-associative LQ (NLQ): the LQ search is deleted, ordering
//     violations are caught by pre-commit re-execution;
//   - the speculative SQ (SSQ): forwarding is split between a small
//     associative forwarding SQ (FSQ) reached through a steering predictor
//     and per-bank best-effort forwarding buffers; the retirement SQ (RSQ)
//     holds all stores but is never searched.
//
// The queues operate on plain records keyed by global dynamic sequence
// numbers; the pipeline owns instruction state and consults these structures
// at load/store execution.
package lsq

import "svwsim/internal/core"

// StoreRec is the view of an in-flight store the queues need.
//
// Address visibility is time-based: the pipeline records the cycle at which
// the store's STA resolves (known at issue, since the address generation
// latency is fixed), and a load executing at cycle t disambiguates against
// every store whose address resolves by t. AddrKnownAt starts at ^0
// ("never", i.e. STA not yet issued).
type StoreRec struct {
	Seq         uint64
	PC          uint64
	SSN         core.SSN
	Addr        uint64
	Size        int
	AddrKnownAt uint64
	Data        uint64
	DataKnownAt uint64
}

// AddrKnown reports whether the address is visible at cycle asOf.
func (s *StoreRec) AddrKnown(asOf uint64) bool { return s.AddrKnownAt <= asOf }

// DataKnown reports whether the forwardable data is available at cycle asOf.
func (s *StoreRec) DataKnown(asOf uint64) bool { return s.DataKnownAt <= asOf }

// Overlaps reports whether [addr, addr+size) intersects the store's range.
// Only meaningful when AddrKnown.
func (s *StoreRec) Overlaps(addr uint64, size int) bool {
	return s.Addr < addr+uint64(size) && addr < s.Addr+uint64(s.Size)
}

// Contains reports whether the store's range fully covers [addr, addr+size).
func (s *StoreRec) Contains(addr uint64, size int) bool {
	return s.Addr <= addr && addr+uint64(size) <= s.Addr+uint64(s.Size)
}

// ExtractData returns the load-sized slice of the store's data for a fully
// contained load at addr (little-endian).
func (s *StoreRec) ExtractData(addr uint64, size int) uint64 {
	shift := (addr - s.Addr) * 8
	v := s.Data >> shift
	if size < 8 {
		v &= 1<<(uint(size)*8) - 1
	}
	return v
}

// SearchKind classifies the result of an SQ search.
type SearchKind uint8

// Search outcomes, in decreasing priority: the youngest older store with a
// known overlapping address decides the kind.
const (
	// SearchMiss: no older store with a known address overlaps the load.
	SearchMiss SearchKind = iota
	// SearchForward: a known older store fully contains the load and its
	// data is available; Value/StoreSeq/StoreSSN are set.
	SearchForward
	// SearchDataWait: the matching store's data is not yet available; the
	// load must wait for StoreSeq to execute.
	SearchDataWait
	// SearchPartial: the matching store only partially covers the load; the
	// load must wait until StoreSeq commits and then read the cache.
	SearchPartial
)

// SearchResult is an SQ search outcome.
type SearchResult struct {
	Kind     SearchKind
	Value    uint64 // SearchForward: raw (unextended) load-sized value
	StoreSeq uint64
	StoreSSN core.SSN
	StorePC  uint64
	// AmbiguousOlder is true when at least one store older than the load and
	// younger than the matching store (or any older store, on a miss) has an
	// unknown address: the load is speculating past it. This is the NLQls
	// marking condition.
	AmbiguousOlder bool
}

// StoreQueue is an age-ordered queue of in-flight stores. It serves as the
// conventional SQ, the SSQ's FSQ (small, selectively allocated), and — with
// search never called — the SSQ's RSQ.
//
// The backing store is a fixed-capacity power-of-two ring buffer allocated
// once at construction: Push/PopHead/SquashYoungerThan move indices, never
// memory, so steady-state operation performs no allocation. The age order
// queues rely on is positional — slot head+i holds the i-th oldest store.
type StoreQueue struct {
	buf  []StoreRec // power-of-two ring
	head int        // ring index of the oldest entry
	n    int        // occupancy
	cap  int        // logical capacity (may be below len(buf))
	mask int
}

// RingSize returns the power-of-two ring allocation for a logical capacity.
// It is the one sizing rule every ring in the simulator uses (the LSQ
// queues here, the pipeline's ROB and fetch ring).
func RingSize(capacity int) int {
	sz := 1
	for sz < capacity {
		sz <<= 1
	}
	return sz
}

// NewStoreQueue returns a queue holding at most capacity stores.
func NewStoreQueue(capacity int) *StoreQueue {
	sz := RingSize(capacity)
	return &StoreQueue{buf: make([]StoreRec, sz), cap: capacity, mask: sz - 1}
}

// Reset empties the queue, retaining the ring allocation.
func (q *StoreQueue) Reset() { q.head, q.n = 0, 0 }

// at returns the i-th oldest entry (0 = head). Callers bound i by Len.
func (q *StoreQueue) at(i int) *StoreRec { return &q.buf[(q.head+i)&q.mask] }

// Len returns the current occupancy; Cap the capacity.
func (q *StoreQueue) Len() int { return q.n }

// Cap returns the queue capacity.
func (q *StoreQueue) Cap() int { return q.cap }

// Full reports whether an allocation would overflow.
func (q *StoreQueue) Full() bool { return q.n >= q.cap }

// Push allocates a store at the tail (dispatch order), with address and
// data visibility initialized to "never", and returns its slot for At. It
// panics if full; callers gate dispatch on Full.
func (q *StoreQueue) Push(rec StoreRec) int {
	if q.Full() {
		panic("lsq: store queue overflow")
	}
	if rec.AddrKnownAt == 0 {
		rec.AddrKnownAt = ^uint64(0)
	}
	if rec.DataKnownAt == 0 {
		rec.DataKnownAt = ^uint64(0)
	}
	if q.n > 0 && q.at(q.n-1).Seq >= rec.Seq {
		panic("lsq: store queue push out of order")
	}
	slot := (q.head + q.n) & q.mask
	q.n++
	q.buf[slot] = rec
	return slot
}

// At returns the entry in slot, as Push returned it, while it is queued.
// Remove moves younger entries, so a queue that removes from its middle
// (the FSQ) finds entries with Find instead.
func (q *StoreQueue) At(slot int) *StoreRec { return &q.buf[slot] }

// Find returns the entry with the given seq, or nil.
func (q *StoreQueue) Find(seq uint64) *StoreRec {
	for i := 0; i < q.n; i++ {
		if e := q.at(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// Head returns the oldest entry, or nil if empty.
func (q *StoreQueue) Head() *StoreRec {
	if q.n == 0 {
		return nil
	}
	return q.at(0)
}

// PopHead removes the oldest entry (store commit).
func (q *StoreQueue) PopHead() StoreRec {
	if q.n == 0 {
		panic("lsq: pop from empty store queue")
	}
	rec := *q.at(0)
	q.head = (q.head + 1) & q.mask
	q.n--
	return rec
}

// Remove deletes the entry with the given seq wherever it sits (used by the
// FSQ, whose members commit out of FSQ order relative to non-FSQ stores).
// Younger entries shift down one slot to close the gap, preserving age
// order. It reports whether an entry was removed.
func (q *StoreQueue) Remove(seq uint64) bool {
	for i := 0; i < q.n; i++ {
		if q.at(i).Seq != seq {
			continue
		}
		for j := i; j < q.n-1; j++ {
			*q.at(j) = *q.at(j + 1)
		}
		q.n--
		return true
	}
	return false
}

// SquashYoungerThan removes entries with Seq > seq (flush recovery) and
// returns how many were removed.
func (q *StoreQueue) SquashYoungerThan(seq uint64) int {
	n := q.n
	for n > 0 && q.at(n-1).Seq > seq {
		n--
	}
	removed := q.n - n
	q.n = n
	return removed
}

// Search scans older stores (Seq < loadSeq), youngest first, for a
// forwarding or conflict candidate for a load of [addr, addr+size)
// disambiguating at cycle asOf. The scan stops at the youngest overlapping
// resolved-address store; stores whose addresses are not visible by asOf and
// are encountered before that point set AmbiguousOlder (the load speculates
// past them).
func (q *StoreQueue) Search(loadSeq, addr uint64, size int, asOf uint64) SearchResult {
	var res SearchResult
	for i := q.n - 1; i >= 0; i-- {
		st := q.at(i)
		if st.Seq >= loadSeq {
			continue
		}
		if !st.AddrKnown(asOf) {
			res.AmbiguousOlder = true
			continue
		}
		if !st.Overlaps(addr, size) {
			continue
		}
		res.StoreSeq = st.Seq
		res.StoreSSN = st.SSN
		res.StorePC = st.PC
		switch {
		case !st.Contains(addr, size):
			res.Kind = SearchPartial
		case !st.DataKnown(asOf):
			res.Kind = SearchDataWait
		default:
			res.Kind = SearchForward
			res.Value = st.ExtractData(addr, size)
		}
		return res
	}
	return res
}

// OldestUnknownAddr reports whether any store older than loadSeq has an
// address not yet visible at asOf (used for marking when no search is
// performed).
func (q *StoreQueue) OldestUnknownAddr(loadSeq uint64, asOf uint64) bool {
	for i := 0; i < q.n; i++ {
		e := q.at(i)
		if e.Seq >= loadSeq {
			break
		}
		if !e.AddrKnown(asOf) {
			return true
		}
	}
	return false
}
