// Package cache models the timing of a two-level cache hierarchy: set
// associative caches with LRU replacement, miss status handling (in-flight
// line merging), and occupancy-tracked transfer buses, matching the paper's
// memory system (32KB 2-way 2-cycle L1s, 2MB 8-way 15-cycle L2, 150-cycle
// memory, 16B buses with the memory bus at one quarter core frequency).
//
// Caches here are timing-only: they track tags, not data. Data always comes
// from the functional memory images.
package cache

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	Latency   int // hit latency in cycles
	// NextLinePrefetch issues a tagged next-line prefetch on every demand
	// miss (a simple sequential prefetcher in the style of the era's
	// stream buffers). The prefetched line fills in the shadow of the
	// demand miss.
	NextLinePrefetch bool
}

// BusConfig describes a transfer bus between levels.
type BusConfig struct {
	WidthBytes    int
	CyclesPerBeat int // core cycles to move WidthBytes
}

// Bus tracks occupancy of a transfer link.
type Bus struct {
	cfg    BusConfig
	freeAt uint64
}

// NewBus returns a bus with the given geometry.
func NewBus(cfg BusConfig) *Bus { return &Bus{cfg: cfg} }

// Acquire reserves the bus for transferring bytes, starting no earlier than
// now, and returns the cycle at which the transfer completes.
func (b *Bus) Acquire(now uint64, bytes int) uint64 {
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	beats := (bytes + b.cfg.WidthBytes - 1) / b.cfg.WidthBytes
	b.freeAt = start + uint64(beats*b.cfg.CyclesPerBeat)
	return b.freeAt
}

// line is one way of one set.
type line struct {
	tag   uint64
	stamp uint64 // LRU stamp
	valid bool
}

// Cache is one timing cache level.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint

	lines []line // sets*Ways, set-major
	clock uint64

	lower  *Cache // next level; nil means misses go to memory
	bus    *Bus   // bus toward lower level (or memory if lower == nil)
	memLat int    // only meaningful when lower == nil

	mshr map[uint64]uint64 // line address -> fill-complete cycle

	// Stats
	Accesses, Misses, Prefetches uint64
}

// New builds a cache level. bus may be nil (no transfer modeling). For the
// last level, lower is nil and memLat gives the backing memory latency.
func New(cfg Config, lower *Cache, bus *Bus, memLat int) *Cache {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
		if shift > 16 {
			panic("cache: line size must be a power of two")
		}
	}
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		lower:     lower,
		bus:       bus,
		memLat:    memLat,
		mshr:      make(map[uint64]uint64),
		lines:     make([]line, sets*cfg.Ways),
	}
	return c
}

// Reset empties the cache in place: the result is exactly the cache New
// builds with the same arguments.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.mshr)
	c.clock = 0
	c.Accesses, c.Misses, c.Prefetches = 0, 0, 0
}

// ways returns the ways of addr's set.
func (c *Cache) ways(addr uint64) []line {
	s := c.set(addr) * c.cfg.Ways
	return c.lines[s : s+c.cfg.Ways]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// Bank returns the bank index for addr given nbanks line-interleaved banks.
func (c *Cache) Bank(addr uint64, nbanks int) int {
	return int(addr>>c.lineShift) & (nbanks - 1)
}

func (c *Cache) set(addr uint64) int {
	return int(addr>>c.lineShift) & (c.sets - 1)
}

func (c *Cache) tag(addr uint64) uint64 {
	return addr >> c.lineShift / uint64(c.sets)
}

// lookup probes for addr and refreshes LRU on hit.
func (c *Cache) lookup(addr uint64) bool {
	t := c.tag(addr)
	ways := c.ways(addr)
	for w := range ways {
		if ways[w].valid && ways[w].tag == t {
			c.clock++
			ways[w].stamp = c.clock
			return true
		}
	}
	return false
}

// fill installs addr's line, evicting LRU.
func (c *Cache) fill(addr uint64) {
	ways := c.ways(addr)
	victim, oldest := 0, ^uint64(0)
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].stamp < oldest {
			victim, oldest = w, ways[w].stamp
		}
	}
	c.clock++
	ways[victim] = line{tag: c.tag(addr), stamp: c.clock, valid: true}
}

// Access simulates a read or write of addr at cycle now and returns the cycle
// at which the data is available (for a read) or absorbed (for a write).
// Writes allocate, like reads; stores never stall the commit pipeline on a
// miss in the model (write-buffer assumption), so callers are free to ignore
// the returned cycle for writes.
func (c *Cache) Access(addr uint64, now uint64) uint64 {
	c.Accesses++
	done := now + uint64(c.cfg.Latency)
	if c.lookup(addr) {
		// The line may still be in flight (demand or prefetch fill).
		if ready, inflight := c.mshr[c.LineAddr(addr)]; inflight {
			if ready <= now {
				delete(c.mshr, c.LineAddr(addr))
			} else if ready+uint64(c.cfg.Latency) > done {
				return ready + uint64(c.cfg.Latency)
			}
		}
		return done
	}
	c.Misses++
	line := c.LineAddr(addr)
	if ready, inflight := c.mshr[line]; inflight {
		if ready < now {
			// Fill completed in the past but the entry was not reaped yet.
			delete(c.mshr, line)
			c.fill(line)
			return done
		}
		return ready + uint64(c.cfg.Latency)
	}
	// Miss: fetch the line from below.
	lowerDone := c.fetchLine(line, done)
	if c.cfg.NextLinePrefetch {
		next := line + uint64(c.cfg.LineBytes)
		if !c.Contains(next) {
			if _, inflight := c.mshr[next]; !inflight {
				// Prefetch in the shadow of the demand miss; it occupies
				// the bus after the demand transfer.
				pfDone := c.fetchLine(next, lowerDone)
				c.fill(next)
				c.mshr[next] = pfDone
				c.Prefetches++
			}
		}
	}
	// Install immediately for tag purposes; timing honored via MSHR entry.
	c.fill(line)
	c.mshr[line] = lowerDone
	if len(c.mshr) > 256 {
		c.reapMSHR(now)
	}
	return lowerDone + uint64(c.cfg.Latency)
}

// fetchLine obtains a line from the level below (or memory), modeling the
// transfer bus.
func (c *Cache) fetchLine(line uint64, start uint64) uint64 {
	var lowerDone uint64
	if c.lower != nil {
		lowerDone = c.lower.Access(line, start)
	} else {
		lowerDone = start + uint64(c.memLat)
	}
	if c.bus != nil {
		lowerDone = c.bus.Acquire(lowerDone, c.cfg.LineBytes)
	}
	return lowerDone
}

func (c *Cache) reapMSHR(now uint64) {
	for line, ready := range c.mshr {
		if ready < now {
			delete(c.mshr, line)
		}
	}
}

// ResetStats zeroes the access counters without touching tag state, so a
// sampled-simulation window can measure its own miss rates over carried-over
// (warm) cache contents.
func (c *Cache) ResetStats() {
	c.Accesses, c.Misses, c.Prefetches = 0, 0, 0
}

// Contains reports whether addr's line is resident (testing aid).
func (c *Cache) Contains(addr uint64) bool {
	t := c.tag(addr)
	for _, l := range c.ways(addr) {
		if l.valid && l.tag == t {
			return true
		}
	}
	return false
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy bundles the paper's standard memory system.
type Hierarchy struct {
	ICache *Cache
	DCache *Cache
	L2     *Cache

	cfg           HierarchyConfig
	l2Bus, memBus *Bus
}

// Config returns the geometry the hierarchy was built with.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Reset empties every level and frees both buses in place: the result is
// exactly the hierarchy NewHierarchy builds from the same configuration.
func (h *Hierarchy) Reset() {
	h.ICache.Reset()
	h.DCache.Reset()
	h.L2.Reset()
	h.l2Bus.freeAt = 0
	h.memBus.freeAt = 0
}

// ResetStats zeroes every level's access counters (tag state untouched).
func (h *Hierarchy) ResetStats() {
	h.ICache.ResetStats()
	h.DCache.ResetStats()
	h.L2.ResetStats()
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	ICache Config
	DCache Config
	L2     Config
	MemLat int
	L2Bus  BusConfig // L1 <-> L2
	MemBus BusConfig // L2 <-> memory
}

// DefaultHierarchyConfig returns the paper's memory system: 32KB/2-way/2-cyc
// L1s, 2MB/8-way/15-cyc L2, 150-cycle memory, 16B buses with the memory bus
// at one quarter core frequency.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		ICache: Config{Name: "I$", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64, Latency: 2},
		DCache: Config{Name: "D$", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64, Latency: 2,
			NextLinePrefetch: true},
		L2: Config{Name: "L2", SizeBytes: 2 << 20, Ways: 8, LineBytes: 64, Latency: 15,
			NextLinePrefetch: true},
		MemLat: 150,
		L2Bus:  BusConfig{WidthBytes: 16, CyclesPerBeat: 1},
		MemBus: BusConfig{WidthBytes: 16, CyclesPerBeat: 4},
	}
}

// NewHierarchy builds the two-level hierarchy with a shared L2.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	memBus := NewBus(cfg.MemBus)
	l2 := New(cfg.L2, nil, memBus, cfg.MemLat)
	l2bus := NewBus(cfg.L2Bus)
	return &Hierarchy{
		ICache: New(cfg.ICache, l2, l2bus, 0),
		DCache: New(cfg.DCache, l2, l2bus, 0),
		L2:     l2,
		cfg:    cfg,
		l2Bus:  l2bus,
		memBus: memBus,
	}
}
