// Package rle implements redundant load elimination via register
// integration (Petric, Bracy & Roth, MICRO-35), the third load optimization
// the paper studies (§2.4, §3.4).
//
// The integration table (IT) tracks "operation signatures" — opcode plus
// physical register inputs plus displacement — of recent loads and stores.
// A load whose signature matches an entry is redundant: instead of executing,
// its output architectural register is renamed directly to the entry's
// physical register.
//
//   - Load reuse: the entry was created by an older load; the redundant load
//     adopts the older load's output register.
//   - Speculative memory bypassing: the entry was created by an older store
//     (signature written as the equivalent load); the redundant load adopts
//     the store's *data input* register.
//
// Eliminated loads never execute, so false eliminations — an unaccounted-for
// intervening store — must be caught by pre-commit re-execution. SVW filters
// those re-executions using the SSN each entry carries: SSNrename at creation
// for load-created entries, the store's own SSN for store-created entries.
//
// Squash reuse: entries created by instructions that were later squashed stay
// valid and can integrate the refetched instances of those instructions. The
// physical registers they reference are kept alive by the owning pipeline's
// reference counts. Because a forwarding store may exist on the squashed path
// but not the correct path, the SSBF cannot capture squash-reuse
// vulnerability, so loads integrated through a squash-marked entry always
// re-execute (SVW disabled), exactly as in the paper §4.3.
package rle

import (
	"svwsim/internal/core"
	"svwsim/internal/isa"
)

// Kind distinguishes how an eliminated load obtained its value.
type Kind uint8

// Elimination kinds, the Fig. 7 breakdown.
const (
	KindNone   Kind = iota
	KindReuse       // redundant with an older load
	KindBypass      // speculative memory bypassing from an older store
)

func (k Kind) String() string {
	switch k {
	case KindReuse:
		return "reuse"
	case KindBypass:
		return "bypass"
	}
	return "none"
}

// Entry is one IT entry.
type Entry struct {
	Valid      bool
	Sig        uint64
	DestPhys   int // physical register holding the (would-be) load value
	BasePhys   int // physical register of the address base operand
	SSN        core.SSN
	Kind       Kind
	FromSquash bool // creating instruction was squashed after entry creation
	stamp      uint64
}

// Config sizes the table.
type Config struct {
	Sets int
	Ways int
}

// DefaultConfig matches the paper's 512-entry 2-way set-associative IT.
func DefaultConfig() Config { return Config{Sets: 256, Ways: 2} }

// Table is the integration table.
type Table struct {
	cfg     Config
	entries []Entry // sets*ways, set-major
	clock   uint64

	// The valid entries are chained per base register, in table order:
	// byBase[p] is the first entry whose BasePhys is p (-1: none) and
	// next[i] the entry after i in its chain. The register-free
	// invalidation (InvalidateByBase, called for every freed physical
	// register) walks only the freed register's chain.
	byBase []int32
	next   []int32

	// Stats
	Hits, Misses, Inserts, Evictions, Invalidations uint64
}

// link adds the valid entry i to its base register's chain.
func (t *Table) link(i int) {
	p := t.entries[i].BasePhys
	if p < 0 {
		return
	}
	for p >= len(t.byBase) {
		t.byBase = append(t.byBase, -1)
	}
	at := &t.byBase[p]
	for *at >= 0 && int(*at) < i {
		at = &t.next[*at]
	}
	t.next[i] = *at
	*at = int32(i)
}

// unlink removes entry i, about to become invalid, from its chain.
func (t *Table) unlink(i int) {
	p := t.entries[i].BasePhys
	if p < 0 || p >= len(t.byBase) {
		return
	}
	for at := &t.byBase[p]; *at >= 0; at = &t.next[*at] {
		if int(*at) == i {
			*at = t.next[i]
			return
		}
	}
}

// New builds an empty table.
func New(cfg Config) *Table {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.Sets == 0 || cfg.Ways <= 0 {
		panic("rle: IT sets must be a positive power of two, ways positive")
	}
	// byBase starts empty rather than nil so a Reset table, which keeps
	// its capacity, is indistinguishable from a new one.
	n := cfg.Sets * cfg.Ways
	return &Table{cfg: cfg, entries: make([]Entry, n), byBase: []int32{}, next: make([]int32, n)}
}

// Sig computes the operation signature for a load-shaped access: the load
// opcode (stores pass the equivalent load opcode), the physical register
// holding the base address, and the displacement. Two accesses with equal
// signatures address the same memory with the same width, because physical
// registers are written exactly once.
func Sig(op isa.Op, basePhys int, disp int64) uint64 {
	h := uint64(op)
	h = h*0x9E3779B97F4A7C15 + uint64(basePhys)
	h = h*0x9E3779B97F4A7C15 + uint64(disp)
	// Final avalanche (splitmix64 tail) to spread set-index bits.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h
}

// LoadOpFor maps a store opcode to the load opcode a matching load would
// use, defining bypass signature compatibility. Loads map to themselves.
func LoadOpFor(op isa.Op) (isa.Op, bool) {
	switch op {
	case isa.OpStb, isa.OpLdb:
		return isa.OpLdb, true
	case isa.OpStw, isa.OpLdw:
		return isa.OpLdw, true
	case isa.OpStl, isa.OpLdl:
		return isa.OpLdl, true
	case isa.OpStq, isa.OpLdq:
		return isa.OpLdq, true
	}
	return 0, false
}

func (t *Table) set(sig uint64) int { return int(sig) & (t.cfg.Sets - 1) }

func (t *Table) slot(set, way int) *Entry { return &t.entries[set*t.cfg.Ways+way] }

// Lookup finds a valid entry with the signature. allowSquash false skips
// squash-marked entries (the SVW−SQU configuration of §4.3).
func (t *Table) Lookup(sig uint64, allowSquash bool) (*Entry, int) {
	s := t.set(sig)
	for w := 0; w < t.cfg.Ways; w++ {
		e := t.slot(s, w)
		if e.Valid && e.Sig == sig && (allowSquash || !e.FromSquash) {
			t.Hits++
			t.clock++
			e.stamp = t.clock
			return e, s*t.cfg.Ways + w
		}
	}
	t.Misses++
	return nil, -1
}

// Insert adds an entry, evicting LRU within the set if needed. It returns the
// entry's handle and, when an eviction occurred, the evicted entry so the
// owner can release its physical-register references.
func (t *Table) Insert(e Entry) (handle int, evicted Entry, wasEvicted bool) {
	t.Inserts++
	s := t.set(e.Sig)
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < t.cfg.Ways; w++ {
		slot := t.slot(s, w)
		if slot.Valid && slot.Sig == e.Sig {
			victim = w
			break
		}
		if !slot.Valid {
			victim, oldest = w, 0
			continue
		}
		if slot.stamp < oldest {
			victim, oldest = w, slot.stamp
		}
	}
	handle = s*t.cfg.Ways + victim
	slot := &t.entries[handle]
	if slot.Valid {
		evicted, wasEvicted = *slot, true
		t.Evictions++
		t.unlink(handle)
	}
	t.clock++
	e.Valid = true
	e.stamp = t.clock
	*slot = e
	t.link(handle)
	return handle, evicted, wasEvicted
}

// Get returns the entry at handle, or nil if it has been replaced since.
func (t *Table) Get(handle int) *Entry {
	if handle < 0 || handle >= len(t.entries) {
		return nil
	}
	return &t.entries[handle]
}

// MarkSquashed flags the entry at handle, if it still matches sig, as created
// by a squashed instruction.
func (t *Table) MarkSquashed(handle int, sig uint64) {
	if e := t.Get(handle); e != nil && e.Valid && e.Sig == sig {
		e.FromSquash = true
	}
}

// InvalidateHandle invalidates the entry at handle if it still carries sig,
// returning it so the owner can release its references. Used when a false
// elimination is detected: the entry's value is stale and must not integrate
// the refetched load.
func (t *Table) InvalidateHandle(handle int, sig uint64) (Entry, bool) {
	e := t.Get(handle)
	if e == nil || !e.Valid || e.Sig != sig {
		return Entry{}, false
	}
	t.Invalidations++
	t.unlink(handle)
	out := *e
	e.Valid = false
	return out, true
}

// InvalidateByBase removes every entry whose base physical register is p
// (called when p is freed: a future instruction could reuse p with a
// different value, making the signature stale). The invalidated entries are
// appended to buf — pass a reused scratch slice to keep the owner's release
// path allocation-free — and returned so the owner can release their
// DestPhys references.
func (t *Table) InvalidateByBase(p int, buf []Entry) []Entry {
	if p < 0 || p >= len(t.byBase) {
		return buf
	}
	for i := t.byBase[p]; i >= 0; i = t.next[i] {
		e := &t.entries[i]
		t.Invalidations++
		buf = append(buf, *e)
		e.Valid = false
	}
	t.byBase[p] = -1
	return buf
}

// EvictOne invalidates the least recently used valid entry anywhere in the
// table and returns it; used to relieve physical-register pressure when
// limbo references exhaust the free list. ok is false if the table is empty.
func (t *Table) EvictOne() (Entry, bool) {
	victim, oldest := -1, ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.stamp < oldest {
			victim, oldest = i, e.stamp
		}
	}
	if victim < 0 {
		return Entry{}, false
	}
	t.unlink(victim)
	e := t.entries[victim]
	t.entries[victim].Valid = false
	t.Evictions++
	return e, true
}

// Clear invalidates everything and returns the entries that were valid so the
// owner can release their references (SSN wrap drain per §3.6).
func (t *Table) Clear() []Entry {
	var out []Entry
	for i := range t.entries {
		if t.entries[i].Valid {
			out = append(out, t.entries[i])
			t.entries[i].Valid = false
		}
	}
	for i := range t.byBase {
		t.byBase[i] = -1
	}
	return out
}

// Config returns the table's geometry.
func (t *Table) Config() Config { return t.cfg }

// Reset empties the table and its counters in place: the result is exactly
// the table New builds from the same configuration. (Clear, the wrap
// drain, hands the valid entries back and keeps the counters.)
func (t *Table) Reset() {
	clear(t.entries)
	clear(t.next)
	t.byBase = t.byBase[:0]
	t.clock = 0
	t.Hits, t.Misses, t.Inserts, t.Evictions, t.Invalidations = 0, 0, 0, 0, 0
}

// Len reports the number of valid entries (diagnostics).
func (t *Table) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}
