// Package storesets implements the store-set memory dependence predictor of
// Chrysos and Emer (ISCA-25), the mechanism both paper configurations use to
// manage load speculation.
//
// The predictor has two tables: the Store Set ID Table (SSIT), indexed by
// instruction PC, mapping loads and stores to a store-set; and the Last
// Fetched Store Table (LFST), mapping a store-set to the youngest in-flight
// store in that set. A load renames to a dependence on its set's last fetched
// store; stores in a set are serialized behind one another.
//
// Training requires a (load PC, store PC) pair. The baseline machine obtains
// the store PC directly from the violating LQ search. The non-associative LQ
// has no such search; per the paper it recovers the store PC from the SPCT
// (store PC table) using the violating load's address.
package storesets

// Config sizes the predictor.
type Config struct {
	SSITEntries int
	LFSTEntries int
	// ClearInterval is the cyclic-clearing period in cycles (0 disables).
	// Store-sets only ever grow and merge; without periodic clearing a few
	// early violations can permanently serialize unrelated instructions
	// (Chrysos & Emer clear cyclically for exactly this reason).
	ClearInterval uint64
}

// DefaultConfig matches a standard store-sets deployment.
func DefaultConfig() Config {
	return Config{SSITEntries: 4096, LFSTEntries: 1024, ClearInterval: 30_000}
}

const invalidSet = -1

// StoreSets is the predictor state.
type StoreSets struct {
	cfg  Config
	ssit []int32

	lfstSeq   []uint64 // seq of last fetched store in the set
	lfstValid []bool

	nextSet int32

	// Stats
	Trainings, Merges, LoadDeps, StoreDeps uint64
}

// New builds an empty predictor.
func New(cfg Config) *StoreSets {
	s := &StoreSets{
		cfg:       cfg,
		ssit:      make([]int32, cfg.SSITEntries),
		lfstSeq:   make([]uint64, cfg.LFSTEntries),
		lfstValid: make([]bool, cfg.LFSTEntries),
	}
	s.Reset()
	return s
}

// Config returns the predictor's geometry.
func (s *StoreSets) Config() Config { return s.cfg }

// Reset returns the predictor to its built state in place: the result is
// exactly the predictor New builds from the same configuration. Unlike
// the periodic Clear it also restarts set allocation and the counters.
func (s *StoreSets) Reset() {
	s.Clear()
	clear(s.lfstSeq)
	s.nextSet = 0
	s.ResetStats()
}

func (s *StoreSets) index(pc uint64) int {
	return int(pc>>2) & (s.cfg.SSITEntries - 1)
}

// SetOf returns the store-set of pc, or -1.
func (s *StoreSets) SetOf(pc uint64) int32 { return s.ssit[s.index(pc)] }

// RenameLoad is called when a load renames. It returns the sequence number of
// the store the load must wait for, if any.
func (s *StoreSets) RenameLoad(pc uint64) (dep uint64, ok bool) {
	set := s.ssit[s.index(pc)]
	if set == invalidSet {
		return 0, false
	}
	if !s.lfstValid[set] {
		return 0, false
	}
	s.LoadDeps++
	return s.lfstSeq[set], true
}

// RenameStore is called when a store renames. It returns the sequence number
// of the previous store in the same set the new store must order behind (for
// intra-set store serialization), and records the new store as last fetched.
// setOut is the store's set (-1 if none); the caller passes it back to
// StoreRetired/StoreSquashed.
func (s *StoreSets) RenameStore(pc uint64, seq uint64) (dep uint64, depOK bool, setOut int32) {
	set := s.ssit[s.index(pc)]
	if set == invalidSet {
		return 0, false, invalidSet
	}
	if s.lfstValid[set] {
		dep, depOK = s.lfstSeq[set], true
		s.StoreDeps++
	}
	s.lfstSeq[set] = seq
	s.lfstValid[set] = true
	return dep, depOK, set
}

// StoreExecuted clears the store's LFST entry once its address and data are
// known: later loads need not wait on it through the predictor.
func (s *StoreSets) StoreExecuted(set int32, seq uint64) {
	if set != invalidSet && s.lfstValid[set] && s.lfstSeq[set] == seq {
		s.lfstValid[set] = false
	}
}

// StoreSquashed removes a squashed store from the LFST.
func (s *StoreSets) StoreSquashed(set int32, seq uint64) {
	s.StoreExecuted(set, seq)
}

// Train records a memory-ordering violation between a load and a store,
// merging or creating store-sets per the Chrysos-Emer rules.
func (s *StoreSets) Train(loadPC, storePC uint64) {
	if storePC == 0 {
		return // SPCT had no record; store-blind, nothing to train precisely
	}
	s.Trainings++
	li, si := s.index(loadPC), s.index(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls == invalidSet && ss == invalidSet:
		set := s.allocSet()
		s.ssit[li], s.ssit[si] = set, set
	case ls != invalidSet && ss == invalidSet:
		s.ssit[si] = ls
	case ls == invalidSet && ss != invalidSet:
		s.ssit[li] = ss
	case ls != ss:
		// Merge: both adopt the smaller set id (declining-set rule).
		s.Merges++
		set := ls
		if ss < set {
			set = ss
		}
		s.ssit[li], s.ssit[si] = set, set
	}
}

func (s *StoreSets) allocSet() int32 {
	set := s.nextSet
	s.nextSet = (s.nextSet + 1) % int32(s.cfg.LFSTEntries)
	s.lfstValid[set] = false
	return set
}

// FlushInflight invalidates every LFST entry while keeping the SSIT's
// trained set assignments. The LFST names live store sequence numbers; when
// a sampled-simulation window ends, those stores no longer exist, but the
// PC-to-set training remains valid for the next window.
func (s *StoreSets) FlushInflight() {
	for i := range s.lfstValid {
		s.lfstValid[i] = false
	}
}

// ResetStats zeroes the predictor's event counters (trained state untouched).
func (s *StoreSets) ResetStats() {
	s.Trainings, s.Merges, s.LoadDeps, s.StoreDeps = 0, 0, 0, 0
}

// Clear empties the predictor's tables (the periodic clear). Set
// allocation continues from where it was, and the counters keep counting.
func (s *StoreSets) Clear() {
	for i := range s.ssit {
		s.ssit[i] = invalidSet
	}
	for i := range s.lfstValid {
		s.lfstValid[i] = false
	}
}
