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
	// The disk hit promoted a into memory.
	if _, o := s.Get("a"); o != OriginMemory {
		t.Fatalf("origin %v after promotion, want memory", o)
	}
	s.AccountGet(OriginDisk)
	s.AccountGet(OriginMemory)
	s.AccountGet(OriginMiss)
	st := s.Stats()
	if st.Hits != 1 || st.DiskHits != 1 || st.Misses != 1 {
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
// must be distinguishable from plain growth.
func TestStorePromotionEvictionsAttributed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 1, Dir: dir})
	s.Put("a", []byte("A"))
	s.Put("b", []byte("B")) // Put-driven eviction of a
	st := s.Stats()
	if st.Evictions != 1 || st.PromotionEvictions != 0 {
		t.Fatalf("after Puts: %+v, want 1 Put-driven eviction", st)
	}
	if _, o := s.Get("a"); o != OriginDisk { // promotion evicts b
		t.Fatalf("origin %v, want disk", o)
	}
	st = s.Stats()
	if st.Evictions != 2 || st.PromotionEvictions != 1 {
		t.Fatalf("after promotion: evictions=%d promotion=%d, want 2/1",
			st.Evictions, st.PromotionEvictions)
	}
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
// in-place decode, promotion into a 1-entry memory tier — stays within 8
// allocations (it takes 6). Whole-file reads with a copying decode and
// a per-hit mtime bump took 15.
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
	i := 0
	// Alternating keys evict each other from the memory tier, so every
	// Get is served by the disk tier.
	allocs := testing.AllocsPerRun(200, func() {
		if _, o := s.Get(keys[i%2]); o != OriginDisk {
			t.Fatalf("Get %d: origin %v, want disk", i, o)
		}
		i++
	})
	if allocs > 8 {
		t.Fatalf("warm disk hit: %.1f allocs, want <= 8", allocs)
	}
}
