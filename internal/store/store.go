// Package store is the unified content-addressed result store: one cache
// subsystem shared by every layer of the serving stack. In svwd it is the
// only result cache, and its per-key flights (flight.go) the only
// singleflight; svwsim reads and pre-warms the same on-disk tier, so a
// result computed anywhere is a lookup everywhere.
//
// A Store is two tiers behind one Get/Put:
//
//   - a bounded in-memory LRU of serialized result bytes — the hot tier,
//     equivalent to the bespoke LRU internal/server used to own;
//   - an optional disk tier (disk.go): one checksummed, atomically
//     written file per engine memo key, size-capped with LRU GC, so warm
//     restarts and cross-process sharing cost a read instead of a
//     re-simulation.
//
// Get consults memory first, then the write-behind queue and disk. A
// disk hit is promoted into memory only when the tier has free room or
// the key was disk-hit recently: "recently" is a bounded ghost list of
// the keys of the last disk hits that were not promoted, as many as the
// memory tier holds. So one pass of reads over a cold range cannot evict
// the tier's working set, while a new hot set enters on its second read.
// Put writes through to both tiers.
// Lookups never touch the hit/miss counters — callers that actually
// serve the bytes record the outcome with Account, so probes on requests
// that end up rejected cannot skew the rates (the same contract the
// server's old LRU had).
package store

import "sync"

// DefaultMemoryEntries bounds the memory tier when Options leaves it zero.
const DefaultMemoryEntries = 4096

// Origin says which tier answered a Get.
type Origin int

const (
	// OriginMiss: neither tier had the key.
	OriginMiss Origin = iota
	// OriginMemory: served from the in-memory LRU.
	OriginMemory
	// OriginDisk: served from the disk tier (promoted to memory under
	// Get's rule).
	OriginDisk
	// OriginPeer: answered by the key's owner over HTTP. The store itself
	// never produces this from Get — the serving layer does — but it
	// accounts and spells like any other tier. A fetched checkpoint is put
	// into the memory tier (PutMemory); a forwarded cell never is, so its
	// result lives in its owner's store alone.
	OriginPeer
)

// String returns the origin's wire spelling — the X-Svwd-Cache values.
func (o Origin) String() string {
	switch o {
	case OriginMemory:
		return "memory"
	case OriginDisk:
		return "disk"
	case OriginPeer:
		return "peer"
	default:
		return "miss"
	}
}

// Options configures Open.
type Options struct {
	// MemoryEntries bounds the in-memory tier (0 = DefaultMemoryEntries,
	// minimum 1).
	MemoryEntries int
	// Dir roots the disk tier; "" disables it (memory-only store).
	Dir string
	// MaxBytes caps the disk tier (0 = store.DefaultDiskMaxBytes).
	MaxBytes int64
	// WriteBehind, when > 0 and a disk tier is configured, buffers disk
	// writes in a bounded queue of this many entries drained by a
	// background flusher (writebehind.go) instead of writing synchronously
	// on the serving path. Flushed on Close; 0 keeps writes synchronous.
	WriteBehind int
}

// Stats snapshots a Store's counters and occupancy. Hits/DiskHits/Misses
// advance only through Account.
type Stats struct {
	Hits     uint64 // memory-tier hits
	DiskHits uint64
	// PeerHits counts responses served from a peer's store over the
	// fabric's peer-read protocol — a fetch somewhere else instead of a
	// recompute here.
	PeerHits  uint64
	Misses    uint64
	Evictions uint64 // memory-tier evictions, promotion-driven included
	// PromotionEvictions is the subset of Evictions forced by disk-hit
	// promotions rather than Puts of new results. A high share means the
	// memory tier is too small for the working set sloshing up from disk —
	// reads are cannibalizing the hot tier, not growth.
	PromotionEvictions uint64
	// PromotionsDeferred counts disk hits served but not promoted: the
	// memory tier was full and the key had not been disk-hit recently.
	PromotionsDeferred uint64
	// Coalesced counts singleflight waits: BeginFlight callers that found
	// the key already being computed and shared the leader's result instead
	// of computing their own (flight.go).
	Coalesced   uint64
	Entries     int // memory-tier entries
	Capacity    int // memory-tier bound
	Disk        DiskStats
	WriteBehind WriteBehindStats
}

// Store is the tiered result store. Create with Open; it is safe for
// concurrent use.
type Store struct {
	disk *Disk        // nil = memory only
	wb   *writeBehind // nil = synchronous disk writes

	mu                 sync.Mutex
	mem                *LRU[[]byte]
	cap                int
	ghost              ghost
	flights            map[string]*Flight
	hits               uint64
	diskHits           uint64
	peerHits           uint64
	misses             uint64
	evictions          uint64
	promotionEvictions uint64
	promotionsDeferred uint64
	coalesced          uint64
}

// Open builds a Store from opts, creating the disk tier's directory when
// one is configured.
func Open(opts Options) (*Store, error) {
	capacity := opts.MemoryEntries
	if capacity == 0 {
		capacity = DefaultMemoryEntries
	}
	if capacity < 1 {
		capacity = 1
	}
	s := &Store{mem: NewLRU[[]byte](), cap: capacity, flights: make(map[string]*Flight)}
	if opts.Dir != "" {
		d, err := OpenDisk(opts.Dir, opts.MaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk = d
		if opts.WriteBehind > 0 {
			s.wb = newWriteBehind(d, opts.WriteBehind)
		}
	}
	return s, nil
}

// Close drains the write-behind queue (when one is configured) so every
// completed result has landed on disk, then stops its flusher. Safe on a
// store without one; call it on graceful shutdown before exiting.
func (s *Store) Close() error {
	if s.wb != nil {
		s.wb.close()
	}
	return nil
}

// Flush blocks until every disk write enqueued so far has landed. A no-op
// without a write-behind queue (synchronous writes are already on disk).
func (s *Store) Flush() {
	if s.wb != nil {
		s.wb.flush()
	}
}

// HasDisk reports whether a disk tier is configured.
func (s *Store) HasDisk() bool { return s.disk != nil }

// Get returns the bytes under key and the tier that held them. A disk hit
// is promoted into the memory tier when the tier has free room or the key
// was disk-hit recently (it is in the ghost list); otherwise it is served
// without promotion and its key joins the ghost list, so a second disk
// hit soon after promotes it. An entry still waiting in the
// write-behind queue is a disk hit too: the store accepted it, so
// evicting it from memory before its write lands must not lose it.
// Counters are untouched — callers that serve the result record it via
// Account. Callers must not mutate the returned slice.
func (s *Store) Get(key string) ([]byte, Origin) {
	s.mu.Lock()
	if val, ok := s.mem.Get(key); ok {
		s.mu.Unlock()
		return val, OriginMemory
	}
	s.mu.Unlock()
	if s.disk == nil {
		return nil, OriginMiss
	}
	var val []byte
	var ok bool
	if s.wb != nil {
		val, ok = s.wb.get(key)
	}
	if !ok {
		val, ok = s.disk.Get(key)
	}
	if !ok {
		return nil, OriginMiss
	}
	s.mu.Lock()
	if s.ghost.forget(key) || s.mem.Len() < s.cap {
		s.putMemLocked(key, val, true)
	} else {
		s.ghost.remember(key, s.cap)
		s.promotionsDeferred++
	}
	s.mu.Unlock()
	return val, OriginDisk
}

// Put stores val under key in the memory tier and writes it through to
// the disk tier when one is configured — synchronously, or via the
// write-behind queue when one is enabled. Disk write failures (and
// write-behind drops) are absorbed: the memory tier still serves the
// entry, and the disk simply stays cold for that key.
func (s *Store) Put(key string, val []byte) {
	s.mu.Lock()
	s.putMemLocked(key, val, false)
	s.mu.Unlock()
	s.diskPut(key, val)
}

// PutMemory stores val under key in the memory tier only. The server
// uses it for checkpoints fetched from their owner: the key's persistent
// copy lives there, so writing it to the local disk would unshard the
// tier.
func (s *Store) PutMemory(key string, val []byte) {
	s.mu.Lock()
	s.putMemLocked(key, val, true)
	s.mu.Unlock()
}

// diskPut routes one disk write through the write-behind queue when one
// is configured, synchronously otherwise. No-op without a disk tier.
func (s *Store) diskPut(key string, val []byte) {
	switch {
	case s.disk == nil:
	case s.wb != nil:
		s.wb.enqueue(key, val)
	default:
		s.disk.Put(key, val)
	}
}

// putMemLocked inserts into the memory tier and sheds past the capacity
// bound; promote marks the insert as a disk-hit promotion so the evictions
// it forces are attributed separately in Stats.
func (s *Store) putMemLocked(key string, val []byte, promote bool) {
	s.mem.Put(key, val)
	for s.mem.Len() > s.cap {
		if _, _, ok := s.mem.EvictOldest(); !ok {
			break
		}
		s.evictions++
		if promote {
			s.promotionEvictions++
		}
	}
}

// Account records served work: hits responses served from the memory
// tier, diskHits from the disk tier, misses ones that had to be computed.
func (s *Store) Account(hits, diskHits, misses uint64) {
	s.mu.Lock()
	s.hits += hits
	s.diskHits += diskHits
	s.misses += misses
	s.mu.Unlock()
}

// AccountPeer records n responses served from a peer's store.
func (s *Store) AccountPeer(n uint64) {
	s.mu.Lock()
	s.peerHits += n
	s.mu.Unlock()
}

// AccountGet is Account for one Get outcome.
func (s *Store) AccountGet(o Origin) {
	switch o {
	case OriginMemory:
		s.Account(1, 0, 0)
	case OriginDisk:
		s.Account(0, 1, 0)
	case OriginPeer:
		s.AccountPeer(1)
	default:
		s.Account(0, 0, 1)
	}
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Hits:               s.hits,
		DiskHits:           s.diskHits,
		PeerHits:           s.peerHits,
		Misses:             s.misses,
		Evictions:          s.evictions,
		PromotionEvictions: s.promotionEvictions,
		PromotionsDeferred: s.promotionsDeferred,
		Coalesced:          s.coalesced,
		Entries:            s.mem.Len(),
		Capacity:           s.cap,
	}
	s.mu.Unlock()
	if s.disk != nil {
		st.Disk = s.disk.Stats()
	}
	if s.wb != nil {
		st.WriteBehind = s.wb.stats()
	}
	return st
}

// ghost remembers the keys of the most recent disk hits that were not
// promoted, at most the memory tier's capacity of them: a ring of keys in
// arrival order and an index from key to its slot. A key leaves when it
// is promoted (forget) or when a newer key overwrites its slot. The ring
// is allocated on the first deferred promotion, so a store whose memory
// tier never fills (and one without a disk tier) never pays for it.
type ghost struct {
	ring []string
	next int
	slot map[string]int
}

// forget reports whether key is remembered, and drops it if so.
func (g *ghost) forget(key string) bool {
	if _, ok := g.slot[key]; !ok {
		return false
	}
	delete(g.slot, key)
	return true
}

// remember records key as the newest entry, overwriting the oldest once
// n keys are held. The caller has just seen forget(key) report false, so
// key is not in the ring already.
func (g *ghost) remember(key string, n int) {
	if g.ring == nil {
		g.ring = make([]string, n)
		g.slot = make(map[string]int, n)
	}
	// An overwritten slot still indexes its key unless the key was
	// forgotten or re-remembered elsewhere since.
	if i, ok := g.slot[g.ring[g.next]]; ok && i == g.next {
		delete(g.slot, g.ring[g.next])
	}
	g.ring[g.next] = key
	g.slot[key] = g.next
	g.next = (g.next + 1) % n
}
