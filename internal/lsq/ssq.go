package lsq

// This file holds the SSQ-specific structures (paper §2.3, Fig. 2c): the
// per-bank best-effort forwarding buffers and the FSQ steering predictor.

// FwdBuffer is the small unordered forwarding buffer fronting one data cache
// bank. Stores insert (address, data) when they execute; loads probe it in
// parallel with the cache. It handles only simple forwarding cases — full
// containment, latest insertion wins — and can silently supply a wrong value
// (e.g. the matching store is younger than the load, or a fuller match was
// evicted); re-execution catches such cases and trains the steering
// predictor to route the pair through the FSQ next time.
type FwdBuffer struct {
	entries []fbEntry
	next    int
	size    int
	clock   uint64

	// Stats
	Inserts, Hits, Probes uint64
}

type fbEntry struct {
	valid bool
	addr  uint64
	sz    int
	data  uint64
	seq   uint64
	order uint64
}

// NewFwdBuffer returns a buffer of the given capacity (8 in the paper).
func NewFwdBuffer(capacity int) *FwdBuffer {
	return &FwdBuffer{entries: make([]fbEntry, capacity), size: capacity}
}

// Reset empties the buffer and zeroes its statistics, reusing the entry
// array when the capacity is unchanged.
func (b *FwdBuffer) Reset(capacity int) {
	if capacity != b.size {
		*b = *NewFwdBuffer(capacity)
		return
	}
	for i := range b.entries {
		b.entries[i] = fbEntry{}
	}
	b.next, b.clock = 0, 0
	b.Inserts, b.Hits, b.Probes = 0, 0, 0
}

// Insert records a store's (addr, data); FIFO replacement.
func (b *FwdBuffer) Insert(addr uint64, size int, data uint64, seq uint64) {
	b.Inserts++
	b.clock++
	b.entries[b.next] = fbEntry{valid: true, addr: addr, sz: size, data: data, seq: seq, order: b.clock}
	b.next = (b.next + 1) % b.size
}

// Probe looks for a fully containing entry for [addr, addr+size) from a
// store older than the probing load (the buffer handles "unambiguous cases
// which execute in order anyway"; an age tag keeps younger stores from
// supplying values backward in program order). The most recently inserted
// match wins — which can still be the wrong store; re-execution verifies.
// It returns the raw load-sized value and the inserting store's seq.
func (b *FwdBuffer) Probe(loadSeq, addr uint64, size int) (data uint64, seq uint64, ok bool) {
	b.Probes++
	var best *fbEntry
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid || e.seq >= loadSeq {
			continue
		}
		st := StoreRec{Addr: e.addr, Size: e.sz}
		if !st.Contains(addr, size) {
			continue
		}
		if best == nil || e.order > best.order {
			best = e
		}
	}
	if best == nil {
		return 0, 0, false
	}
	b.Hits++
	st := StoreRec{Addr: best.addr, Size: best.sz, Data: best.data}
	return st.ExtractData(addr, size), best.seq, true
}

// Steering is the FSQ steering predictor: one bit per static load and one
// per static store (a bit in the instruction cache, in hardware). Initially
// clear: no instruction uses the FSQ. When re-execution detects a missed or
// botched forwarding instance, both participants are tagged.
type Steering struct {
	loads  map[uint64]bool
	stores map[uint64]bool

	// Stats
	LoadTags, StoreTags uint64
}

// NewSteering returns an empty predictor.
func NewSteering() *Steering {
	return &Steering{loads: make(map[uint64]bool), stores: make(map[uint64]bool)}
}

// Reset untags every instruction and zeroes the counters in place: the
// result is exactly the predictor NewSteering returns.
func (s *Steering) Reset() {
	clear(s.loads)
	clear(s.stores)
	s.LoadTags, s.StoreTags = 0, 0
}

// LoadSteered reports whether the load at pc should search the FSQ.
func (s *Steering) LoadSteered(pc uint64) bool { return s.loads[pc] }

// StoreSteered reports whether the store at pc should allocate an FSQ entry.
func (s *Steering) StoreSteered(pc uint64) bool { return s.stores[pc] }

// TagLoad marks the load at pc for future FSQ access.
func (s *Steering) TagLoad(pc uint64) {
	if pc != 0 && !s.loads[pc] {
		s.loads[pc] = true
		s.LoadTags++
	}
}

// TagStore marks the store at pc for future FSQ entry.
func (s *Steering) TagStore(pc uint64) {
	if pc != 0 && !s.stores[pc] {
		s.stores[pc] = true
		s.StoreTags++
	}
}

// Counts reports how many static loads and stores are steered.
func (s *Steering) Counts() (loads, stores int) {
	return len(s.loads), len(s.stores)
}
