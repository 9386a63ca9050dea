package core

// SPCT is the store PC table (paper §2.2): a small tagless table indexed by
// low-order address bits in which each entry holds the PC of the last
// retired store to write a matching address.
//
// The non-associative LQ cannot identify the store that triggered an ordering
// violation (there is no LQ search to catch it in the act), so without the
// SPCT it could only train store-blind dependence predictors. On a
// re-execution-failure flush, the violated load's address indexes the SPCT to
// recover the store PC, enabling full store-set training.
type SPCT struct {
	cfg          SPCTConfig
	entries      []uint64
	granuleShift uint

	// Stats
	Updates, Lookups uint64
}

// SPCTConfig sizes the table.
type SPCTConfig struct {
	Entries      int // power of two
	GranuleBytes int
}

// DefaultSPCTConfig mirrors the SSBF geometry: 512 entries, 8-byte granules.
func DefaultSPCTConfig() SPCTConfig { return SPCTConfig{Entries: 512, GranuleBytes: 8} }

// NewSPCT builds the table.
func NewSPCT(cfg SPCTConfig) *SPCT {
	if cfg.Entries&(cfg.Entries-1) != 0 || cfg.Entries == 0 {
		panic("core: SPCT entries must be a positive power of two")
	}
	t := &SPCT{cfg: cfg, entries: make([]uint64, cfg.Entries)}
	if cfg.GranuleBytes == 0 {
		cfg.GranuleBytes = 8
	}
	for 1<<t.granuleShift != cfg.GranuleBytes {
		t.granuleShift++
		if t.granuleShift > 12 {
			panic("core: SPCT granule must be a power of two")
		}
	}
	return t
}

func (t *SPCT) index(granule uint64) int {
	return int(granule) & (len(t.entries) - 1)
}

// Update records pc as the last retired store to write [addr, addr+size).
func (t *SPCT) Update(addr uint64, size int, pc uint64) {
	t.Updates++
	first := addr >> t.granuleShift
	last := (addr + uint64(size) - 1) >> t.granuleShift
	for g := first; g <= last; g++ {
		t.entries[t.index(g)] = pc
	}
}

// Lookup returns the PC of the last retired store to write a granule
// matching addr, or 0 if none has.
func (t *SPCT) Lookup(addr uint64) uint64 {
	t.Lookups++
	return t.entries[t.index(addr>>t.granuleShift)]
}

// Config returns the table's geometry.
func (t *SPCT) Config() SPCTConfig { return t.cfg }

// Reset empties the table and its counters in place: the result is exactly
// the table NewSPCT builds from the same configuration.
func (t *SPCT) Reset() {
	clear(t.entries)
	t.Updates, t.Lookups = 0, 0
}
