package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"svwsim/internal/raceflag"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreMemoryOnly(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 4})
	if s.HasDisk() {
		t.Fatal("disk tier without a dir")
	}
	if _, o := s.Get("a"); o != OriginMiss {
		t.Fatalf("origin %v on empty store", o)
	}
	s.Put("a", []byte("A"))
	v, o := s.Get("a")
	if o != OriginMemory || !bytes.Equal(v, []byte("A")) {
		t.Fatalf("Get a = %q, %v", v, o)
	}
	// Get alone never counts: handlers account served work explicitly, so
	// probes on rejected requests don't skew the rates.
	if st := s.Stats(); st.Hits != 0 || st.DiskHits != 0 || st.Misses != 0 {
		t.Fatalf("stats %+v, want counters untouched by Get", st)
	}
	s.Account(1, 0, 2)
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses / 1 entry", st)
	}
}

func TestStoreMemoryEviction(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 2})
	s.Put("a", []byte("A"))
	s.Put("b", []byte("B"))
	s.Get("a")              // refresh a: b is now the LRU entry
	s.Put("c", []byte("C")) // evicts b
	if _, o := s.Get("b"); o != OriginMiss {
		t.Fatal("b survived, want it evicted as LRU")
	}
	if _, o := s.Get("a"); o != OriginMemory {
		t.Fatal("a was evicted despite being recently used")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreTiered(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 1, Dir: dir})
	if !s.HasDisk() {
		t.Fatal("no disk tier")
	}
	s.Put("a", []byte("A")) // both tiers
	s.Put("b", []byte("B")) // evicts a from memory; disk keeps it
	v, o := s.Get("a")
	if o != OriginDisk || !bytes.Equal(v, []byte("A")) {
		t.Fatalf("Get a = %q, %v, want disk hit", v, o)
	}
	// The memory tier is full and a was not disk-hit before: served, not
	// promoted. The second disk hit finds a in the ghost list and promotes
	// it.
	if _, o := s.Get("a"); o != OriginDisk {
		t.Fatalf("origin %v on the second read, want disk", o)
	}
	if _, o := s.Get("a"); o != OriginMemory {
		t.Fatalf("origin %v after promotion, want memory", o)
	}
	s.AccountGet(OriginDisk)
	s.AccountGet(OriginMemory)
	s.AccountGet(OriginMiss)
	st := s.Stats()
	if st.Hits != 1 || st.DiskHits != 1 || st.Misses != 1 || st.PromotionsDeferred != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Disk.Entries != 2 {
		t.Fatalf("disk entries %d, want 2", st.Disk.Entries)
	}
}

// A store reopened on the same directory — a restarted daemon — answers
// from disk what the previous process computed.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, Options{Dir: dir})
	s1.Put("job", []byte("result bytes"))

	s2 := openStore(t, Options{Dir: dir})
	v, o := s2.Get("job")
	if o != OriginDisk || !bytes.Equal(v, []byte("result bytes")) {
		t.Fatalf("after restart: %q, %v, want disk hit", v, o)
	}
}

// Corrupting the backing file degrades to a miss; a fresh Put repairs it.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 1, Dir: dir})
	s.Put("job", []byte("good"))
	s.Put("spill", []byte("x")) // push job out of the memory tier

	path := filepath.Join(dir, fileName("job"))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, o := s.Get("job"); o != OriginMiss {
		t.Fatal("corrupt entry served")
	}
	if st := s.Stats(); st.Disk.Corrupt != 1 {
		t.Fatalf("stats %+v, want 1 corrupt", st)
	}
	s.Put("job", []byte("recomputed"))
	s.Put("spill", []byte("x"))
	if v, o := s.Get("job"); o != OriginDisk || !bytes.Equal(v, []byte("recomputed")) {
		t.Fatalf("after recompute: %q, %v", v, o)
	}
}

// Evictions forced by disk-hit promotions are attributed separately from
// Put-driven ones: a read-heavy workload cannibalizing the memory tier
// must be distinguishable from plain growth. A disk hit that is served
// without promotion evicts nothing and counts as deferred.
func TestStorePromotionEvictionsAttributed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 1, Dir: dir})
	s.Put("a", []byte("A"))
	s.Put("b", []byte("B")) // Put-driven eviction of a
	st := s.Stats()
	if st.Evictions != 1 || st.PromotionEvictions != 0 {
		t.Fatalf("after Puts: %+v, want 1 Put-driven eviction", st)
	}
	if _, o := s.Get("a"); o != OriginDisk { // deferred: b stays
		t.Fatalf("origin %v, want disk", o)
	}
	st = s.Stats()
	if st.Evictions != 1 || st.PromotionEvictions != 0 || st.PromotionsDeferred != 1 {
		t.Fatalf("after a first disk hit: evictions=%d promotion=%d deferred=%d, want 1/0/1",
			st.Evictions, st.PromotionEvictions, st.PromotionsDeferred)
	}
	if _, o := s.Get("a"); o != OriginDisk { // promotion evicts b
		t.Fatalf("origin %v, want disk", o)
	}
	st = s.Stats()
	if st.Evictions != 2 || st.PromotionEvictions != 1 || st.PromotionsDeferred != 1 {
		t.Fatalf("after promotion: evictions=%d promotion=%d deferred=%d, want 2/1/1",
			st.Evictions, st.PromotionEvictions, st.PromotionsDeferred)
	}
	if _, o := s.Get("b"); o != OriginDisk {
		t.Fatalf("origin %v for the evicted b, want disk", o)
	}
}

// warmDir returns a directory holding every key of keys, written through
// a store that is then dropped, so a store opened on it starts with an
// empty memory tier — a restarted daemon.
func warmDir(t *testing.T, keys []string) string {
	t.Helper()
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 1, Dir: dir})
	for _, k := range keys {
		s.Put(k, []byte("v:"+k))
	}
	return dir
}

func keyRange(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return keys
}

// expectGets reads every key and requires each read to come from want.
func expectGets(t *testing.T, s *Store, keys []string, want Origin, what string) {
	t.Helper()
	for _, k := range keys {
		v, o := s.Get(k)
		if o != want || string(v) != "v:"+k {
			t.Fatalf("%s: Get %s = %q, %v, want %v", what, k, v, o, want)
		}
	}
}

// TestStoreScanKeepsHotSet: a hot set that fills the memory tier and is
// read twice stays there while a one-pass scan of four times the tier's
// capacity in cold keys goes by. The ghost list is bounded: after the
// scan it remembers only the last capacity's worth of cold keys, so the
// scan's first key is still deferred and its last one promotes.
func TestStoreScanKeepsHotSet(t *testing.T) {
	const capacity = 8
	hot, cold := keyRange("hot", capacity), keyRange("cold", 4*capacity)
	s := openStore(t, Options{MemoryEntries: capacity, Dir: warmDir(t, append(hot, cold...))})
	expectGets(t, s, hot, OriginDisk, "hot, first pass (free room: promoted)")
	expectGets(t, s, hot, OriginMemory, "hot, second pass")
	for i, k := range cold {
		expectGets(t, s, []string{k}, OriginDisk, "cold scan")
		if i%capacity == 0 {
			expectGets(t, s, hot[:1], OriginMemory, "hot during the scan")
		}
	}
	expectGets(t, s, hot, OriginMemory, "hot after the scan")
	st := s.Stats()
	if st.PromotionsDeferred != uint64(len(cold)) || st.Evictions != 0 {
		t.Fatalf("after the scan: deferred=%d evictions=%d, want %d/0", st.PromotionsDeferred, st.Evictions, len(cold))
	}
	expectGets(t, s, cold[:1], OriginDisk, "first cold key again")
	if st := s.Stats(); st.PromotionsDeferred != uint64(len(cold))+1 || st.Evictions != 0 {
		t.Fatalf("the scan's first key was still remembered: %+v", st)
	}
	last := cold[len(cold)-1:]
	expectGets(t, s, last, OriginDisk, "last cold key again (promoted)")
	expectGets(t, s, last, OriginMemory, "last cold key, promoted")
	if st := s.Stats(); st.PromotionEvictions != 1 {
		t.Fatalf("promotion of the last cold key: %+v, want 1 promotion eviction", st)
	}
}

// TestStoreNewHotSetEnters: the rule is not "never evict". A new hot set
// read repeatedly replaces the old one: its first pass is deferred, its
// second promotes every key, and from its third it is all memory hits.
func TestStoreNewHotSetEnters(t *testing.T) {
	const capacity = 8
	old, fresh := keyRange("old", capacity), keyRange("new", capacity)
	s := openStore(t, Options{MemoryEntries: capacity, Dir: warmDir(t, append(old, fresh...))})
	expectGets(t, s, old, OriginDisk, "old set, first pass")
	expectGets(t, s, old, OriginMemory, "old set, second pass")
	expectGets(t, s, fresh, OriginDisk, "new set, first pass (deferred)")
	expectGets(t, s, fresh, OriginDisk, "new set, second pass (promoted)")
	expectGets(t, s, fresh, OriginMemory, "new set, third pass")
	st := s.Stats()
	if st.PromotionsDeferred != capacity || st.PromotionEvictions != capacity {
		t.Fatalf("deferred=%d promotion evictions=%d, want %d/%d",
			st.PromotionsDeferred, st.PromotionEvictions, capacity, capacity)
	}
	expectGets(t, s, old[:1], OriginDisk, "old set after replacement")
}

// A failed disk write behind a successful memory Put must leave a trace:
// the memory tier still serves, but DiskStats.WriteErrors records that
// the result never persisted. (The directory is removed out from under
// the tier — a chmod-based failure would be invisible to root.)
func TestStoreDiskWriteErrorCounted(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 4, Dir: dir})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Put("job", []byte("result"))
	if v, o := s.Get("job"); o != OriginMemory || !bytes.Equal(v, []byte("result")) {
		t.Fatalf("memory tier lost the entry: %q, %v", v, o)
	}
	st := s.Stats()
	if st.Disk.WriteErrors != 1 {
		t.Fatalf("write errors = %d, want 1: %+v", st.Disk.WriteErrors, st)
	}
	// A restarted store sees nothing on disk: the write really was lost.
	s2 := openStore(t, Options{MemoryEntries: 4, Dir: dir})
	if _, o := s2.Get("job"); o != OriginMiss {
		t.Fatalf("origin %v after restart, want miss", o)
	}
}

// TestStoreConcurrent hammers a tiered store from many goroutines, with
// synchronous and with write-behind disk writes; under -race this is the
// package's data-race gate.
func TestStoreConcurrent(t *testing.T) {
	for _, wb := range []int{0, 8} {
		s := openStore(t, Options{MemoryEntries: 16, Dir: t.TempDir(), WriteBehind: wb})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					key := fmt.Sprintf("k%d", i%32)
					s.Put(key, []byte(key))
					if v, o := s.Get(key); o != OriginMiss && !bytes.Equal(v, []byte(key)) {
						t.Errorf("key %s returned %q", key, v)
					}
					s.AccountGet(OriginMemory)
				}
			}(g)
		}
		wg.Wait()
		s.Close()
		if st := s.Stats(); st.Entries > 16 {
			t.Fatalf("write-behind %d: memory tier exceeded capacity: %+v", wb, st)
		}
	}
}

// A warm disk hit through Store.Get — path, sized read into one buffer,
// in-place decode, then either a deferred promotion (the key joins the
// ghost list) or a promotion into a 1-entry memory tier — stays within 8
// allocations (the two paths average 5; a promoting hit alone took 6
// before deferral). Whole-file reads with a copying decode and a per-hit
// mtime bump took 15.
func TestStoreDiskHitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := openStore(t, Options{MemoryEntries: 1, Dir: t.TempDir()})
	payload := bytes.Repeat([]byte("r"), 1024)
	keys := []string{
		"gcc|300000|" + strings.Repeat("a", 64),
		"gcc|300000|" + strings.Repeat("b", 64),
	}
	for _, k := range keys {
		s.Put(k, payload)
	}
	// Each key read twice in a row: the first read is deferred, the second
	// finds the key in the ghost list and promotes it, evicting the other
	// key — so every Get is served by the disk tier, half of them
	// promoting.
	order := []string{keys[0], keys[0], keys[1], keys[1]}
	allocs := testing.AllocsPerRun(100, func() {
		for i, k := range order {
			if _, o := s.Get(k); o != OriginDisk {
				t.Fatalf("Get %d: origin %v, want disk", i, o)
			}
		}
	}) / float64(len(order))
	if allocs > 8 {
		t.Fatalf("warm disk hit: %.1f allocs, want <= 8", allocs)
	}
	if st := s.Stats(); st.PromotionsDeferred == 0 || st.PromotionEvictions == 0 {
		t.Fatalf("both paths not taken: %+v", st)
	}
}
