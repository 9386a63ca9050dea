package core

// SSBFConfig selects an SSBF organization. The zero value is invalid; use
// DefaultSSBFConfig for the paper's baseline 512-entry, 8-byte-granularity
// filter (1KB at 16-bit SSNs).
type SSBFConfig struct {
	// Entries is the number of filter entries; must be a power of two.
	// Entries == 0 selects the infinite (exact, per-granule map) filter used
	// as the paper's upper bound.
	Entries int
	// GranuleBytes is the conflict-tracking granularity (8 in the default
	// configuration; 4 in the "4-byte" sensitivity point). Sub-granule writes
	// alias, producing the paper's "false sharing" re-executions.
	GranuleBytes int
	// DualHash adds the second 512-entry filter indexed by the next address
	// bits; a load re-executes only if it collides in both ("Bloom" point of
	// Fig. 8).
	DualHash    bool
	DualEntries int
	// LineBytes is the cache line size, used by banked invalidation updates
	// (NLQsm): an invalidation writes every granule of the line.
	LineBytes int
}

// DefaultSSBFConfig is the paper's default: 512 entries, 8-byte granules.
func DefaultSSBFConfig() SSBFConfig {
	return SSBFConfig{Entries: 512, GranuleBytes: 8, DualEntries: 512, LineBytes: 64}
}

// SSBF is the store sequence Bloom filter. It is managed in program order by
// the re-execution pipeline's SVW stage and read by marked loads immediately
// before their would-be data cache re-access.
type SSBF struct {
	cfg          SSBFConfig // as built, before defaults
	lineBytes    int
	granuleShift uint
	primary      []SSN
	secondary    []SSN          // DualHash only
	exact        map[uint64]SSN // infinite mode only

	// Stats
	Lookups, Positives, Updates uint64
}

// NewSSBF builds a filter.
func NewSSBF(cfg SSBFConfig) *SSBF {
	f := &SSBF{cfg: cfg, lineBytes: cfg.LineBytes}
	if f.lineBytes == 0 {
		f.lineBytes = 64
	}
	granule := cfg.GranuleBytes
	if granule == 0 {
		granule = 8
	}
	for 1<<f.granuleShift != granule {
		f.granuleShift++
		if f.granuleShift > 12 {
			panic("core: SSBF granule must be a power of two")
		}
	}
	if cfg.Entries == 0 {
		f.exact = make(map[uint64]SSN)
		return f
	}
	if cfg.Entries&(cfg.Entries-1) != 0 {
		panic("core: SSBF entries must be a power of two")
	}
	f.primary = make([]SSN, cfg.Entries)
	if cfg.DualHash {
		n := cfg.DualEntries
		if n == 0 {
			n = 512
		}
		if n&(n-1) != 0 {
			panic("core: SSBF dual entries must be a power of two")
		}
		f.secondary = make([]SSN, n)
	}
	return f
}

// Config returns the configuration the filter was built from.
func (f *SSBF) Config() SSBFConfig { return f.cfg }

func (f *SSBF) primaryIndex(granule uint64) int {
	return int(granule) & (f.cfg.Entries - 1)
}

func (f *SSBF) secondaryIndex(granule uint64) int {
	// Indexed by the next address bits above the primary index field.
	bits := 0
	for 1<<bits < f.cfg.Entries {
		bits++
	}
	return int(granule>>uint(bits)) & (len(f.secondary) - 1)
}

// Update records that a store with sequence number ssn wrote [addr,
// addr+size). All spanned granules are updated. Entries only ever increase
// in practice because the SVW stage processes stores in order, but a wrong
// path store may legitimately leave a too-high SSN behind; the filter keeps
// the maximum, which is conservative (spurious re-executions only).
func (f *SSBF) Update(addr uint64, size int, ssn SSN) {
	f.Updates++
	first := addr >> f.granuleShift
	last := (addr + uint64(size) - 1) >> f.granuleShift
	for g := first; g <= last; g++ {
		f.updateGranule(g, ssn)
	}
}

func (f *SSBF) updateGranule(g uint64, ssn SSN) {
	if f.exact != nil {
		if f.exact[g] < ssn {
			f.exact[g] = ssn
		}
		return
	}
	if i := f.primaryIndex(g); f.primary[i] < ssn {
		f.primary[i] = ssn
	}
	if f.secondary != nil {
		if i := f.secondaryIndex(g); f.secondary[i] < ssn {
			f.secondary[i] = ssn
		}
	}
}

// Invalidate models an inter-thread coherence invalidation of the cache line
// containing lineAddr (NLQsm, paper §3.2): every granule of the line is
// written — the SSBF is banked so that all banks write in one cycle — with
// an SSN one greater than the youngest in-flight store's, making every
// in-flight load to the line appear vulnerable.
func (f *SSBF) Invalidate(lineAddr uint64, ssnRenamePlus1 SSN) {
	line := lineAddr &^ uint64(f.lineBytes-1)
	f.Update(line, f.lineBytes, ssnRenamePlus1)
}

// Lookup returns the maximum SSN recorded for any granule spanned by
// [addr, addr+size) (diagnostic/test aid; the filter test is NeedsRexec).
func (f *SSBF) Lookup(addr uint64, size int) SSN {
	var max SSN
	first := addr >> f.granuleShift
	last := (addr + uint64(size) - 1) >> f.granuleShift
	for g := first; g <= last; g++ {
		var v SSN
		if f.exact != nil {
			v = f.exact[g]
		} else {
			v = f.primary[f.primaryIndex(g)]
		}
		if v > max {
			max = v
		}
	}
	return max
}

// NeedsRexec evaluates the re-execution filter test for a load with the
// given SVW: true means the load may conflict with a store it is vulnerable
// to and must re-execute; false unambiguously means no conflict occurred.
func (f *SSBF) NeedsRexec(addr uint64, size int, svw SSN) bool {
	f.Lookups++
	first := addr >> f.granuleShift
	last := (addr + uint64(size) - 1) >> f.granuleShift
	for g := first; g <= last; g++ {
		if f.granuleNeedsRexec(g, svw) {
			f.Positives++
			return true
		}
	}
	return false
}

func (f *SSBF) granuleNeedsRexec(g uint64, svw SSN) bool {
	if f.exact != nil {
		return f.exact[g] > svw
	}
	if f.primary[f.primaryIndex(g)] <= svw {
		return false
	}
	if f.secondary != nil && f.secondary[f.secondaryIndex(g)] <= svw {
		return false // second filter disambiguates the alias
	}
	return true
}

// Clear flash-clears the filter (SSN wrap drain, §3.6).
func (f *SSBF) Clear() {
	if f.exact != nil {
		clear(f.exact)
		return
	}
	for i := range f.primary {
		f.primary[i] = 0
	}
	for i := range f.secondary {
		f.secondary[i] = 0
	}
}

// Reset empties the filter and its counters in place: the result is
// exactly the filter NewSSBF builds from the same configuration. (Clear,
// the wrap flash-clear, keeps the counters.)
func (f *SSBF) Reset() {
	f.Clear()
	f.Lookups, f.Positives, f.Updates = 0, 0, 0
}

// PositiveRate returns Positives/Lookups (diagnostics).
func (f *SSBF) PositiveRate() float64 {
	if f.Lookups == 0 {
		return 0
	}
	return float64(f.Positives) / float64(f.Lookups)
}
