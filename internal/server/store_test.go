package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/store"
)

// sweepBodyFor builds the standard test sweep request.
func sweepBodyFor(configs, benches string) string {
	return fmt.Sprintf(`{"configs":[%s],"benches":[%s],"insts":%d}`, configs, benches, testInsts)
}

// corruptStoreFiles bit-flips every store entry under dir and returns how
// many it mangled.
func corruptStoreFiles(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.svw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x20
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// A server restarted on the same -store-dir answers a previously-run
// sweep byte-identically with zero engine executions: every job is a
// disk (or promoted memory) hit — the warm-restart contract the ci.sh
// smoke stage also enforces end to end.
func TestWarmRestartServesSweepFromDisk(t *testing.T) {
	dir := t.TempDir()
	sweep := sweepBodyFor(`"ssq","ssq+svw"`, `"gcc","twolf"`)

	s1 := newTestServer(Options{StoreDir: dir})
	w1 := do(s1, "POST", "/v1/sweep", sweep, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("first sweep HTTP %d: %s", w1.Code, w1.Body)
	}
	if m := s1.engineStats(); m.MemoMisses != 4 {
		t.Fatalf("first server executed %d jobs, want 4", m.MemoMisses)
	}

	// "Restart": a brand-new server process over the same directory. Its
	// memory tier and engine memo are empty; only the disk tier carries
	// over.
	s2 := newTestServer(Options{StoreDir: dir})
	w2 := do(s2, "POST", "/v1/sweep", sweep, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("restart sweep HTTP %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w2.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("restarted server's sweep differs from the original")
	}
	if m := s2.engineStats(); m.MemoMisses != 0 || m.MemoHits != 0 {
		t.Fatalf("restarted server touched the engine: %+v, want all jobs from the store", m)
	}
	st := cacheStats(t, s2)
	if st.DiskHits != 4 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("restart stats %+v, want 4 disk hits / 0 misses", st)
	}
	if st.DiskEntries == 0 || st.DiskBytes == 0 {
		t.Fatalf("stats do not surface the disk tier: %+v", st)
	}

	// A third pass is served from the memory tier the disk hits promoted
	// into.
	w3 := do(s2, "POST", "/v1/sweep", sweep, nil)
	if !bytes.Equal(w3.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("memory-tier pass differs")
	}
	if st := cacheStats(t, s2); st.Hits != 4 {
		t.Fatalf("third pass stats %+v, want 4 memory hits", st)
	}
}

// /v1/run's X-Svwd-Cache header distinguishes all three outcomes.
func TestRunCacheHeaderThreeValues(t *testing.T) {
	dir := t.TempDir()
	run := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)

	s1 := newTestServer(Options{StoreDir: dir})
	if h := do(s1, "POST", "/v1/run", run, nil).Header().Get(api.CacheHeader); h != api.CacheMiss {
		t.Fatalf("first run %s=%q, want %q", api.CacheHeader, h, api.CacheMiss)
	}
	if h := do(s1, "POST", "/v1/run", run, nil).Header().Get(api.CacheHeader); h != api.CacheMemory {
		t.Fatalf("repeat run %s=%q, want %q", api.CacheHeader, h, api.CacheMemory)
	}

	s2 := newTestServer(Options{StoreDir: dir})
	if h := do(s2, "POST", "/v1/run", run, nil).Header().Get(api.CacheHeader); h != api.CacheDisk {
		t.Fatalf("restarted run %s=%q, want %q", api.CacheHeader, h, api.CacheDisk)
	}
	if h := do(s2, "POST", "/v1/run", run, nil).Header().Get(api.CacheHeader); h != api.CacheMemory {
		t.Fatalf("promoted run %s=%q, want %q", api.CacheHeader, h, api.CacheMemory)
	}
}

// SSE sweeps report the serving tier per event and count disk hits in the
// done summary.
func TestSweepSSEReportsOrigin(t *testing.T) {
	dir := t.TempDir()
	sweep := sweepBodyFor(`"ssq"`, `"gcc","twolf"`)
	hdr := map[string]string{"Accept": "text/event-stream"}

	s1 := newTestServer(Options{StoreDir: dir})
	if w := do(s1, "POST", "/v1/sweep", sweep, nil); w.Code != http.StatusOK {
		t.Fatalf("warm-up sweep HTTP %d", w.Code)
	}
	s2 := newTestServer(Options{StoreDir: dir})
	w := do(s2, "POST", "/v1/sweep", sweep, hdr)
	if w.Code != http.StatusOK {
		t.Fatalf("SSE sweep HTTP %d: %s", w.Code, w.Body)
	}
	events := parseSSE(t, w.Body.String())
	if len(events) != 3 {
		t.Fatalf("got %d events, want 2 results + done", len(events))
	}
	for i := 0; i < 2; i++ {
		var ev SweepEvent
		if err := json.Unmarshal(events[i].Data, &ev); err != nil {
			t.Fatal(err)
		}
		if !ev.Cached || ev.Origin != api.CacheDisk {
			t.Fatalf("event %d: cached=%v origin=%q, want disk hit", i, ev.Cached, ev.Origin)
		}
	}
	var done SweepDone
	if err := json.Unmarshal(events[2].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.CacheHits != 2 || done.DiskHits != 2 || done.CacheMisses != 0 {
		t.Fatalf("done %+v, want 2 cache hits, both from disk", done)
	}
}

// Corrupted store entries — truncated or bit-flipped files — are
// detected, skipped and recomputed: the repeated sweep is byte-identical
// and the mangled entries never reach a client.
func TestCorruptStoreEntriesRecomputed(t *testing.T) {
	dir := t.TempDir()
	sweep := sweepBodyFor(`"ssq","ssq+svw"`, `"gcc"`)

	s1 := newTestServer(Options{StoreDir: dir})
	w1 := do(s1, "POST", "/v1/sweep", sweep, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("first sweep HTTP %d", w1.Code)
	}
	if n := corruptStoreFiles(t, dir); n != 2 {
		t.Fatalf("corrupted %d files, want 2", n)
	}

	s2 := newTestServer(Options{StoreDir: dir})
	w2 := do(s2, "POST", "/v1/sweep", sweep, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("post-corruption sweep HTTP %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w2.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("recomputed sweep differs from the original")
	}
	if m := s2.engineStats(); m.MemoMisses != 2 {
		t.Fatalf("engine executed %d jobs, want 2 (every corrupt entry recomputed)", m.MemoMisses)
	}
	st := cacheStats(t, s2)
	if st.DiskCorrupt != 2 {
		t.Fatalf("stats %+v, want 2 corrupt entries detected", st)
	}
	scrape := do(s2, "GET", "/metrics", "", nil).Body.String()
	if !strings.Contains(scrape, "\nsvw_store_disk_corrupt_total 2\n") {
		t.Fatalf("/metrics does not count the 2 corrupt entries:\n%s", scrape)
	}
	// The recomputed entries were written back: a fresh restart is warm
	// again.
	s3 := newTestServer(Options{StoreDir: dir})
	w3 := do(s3, "POST", "/v1/sweep", sweep, nil)
	if !bytes.Equal(w3.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("store was not repaired after recompute")
	}
	if m := s3.engineStats(); m.MemoMisses != 0 {
		t.Fatalf("repaired store still executed %d jobs", m.MemoMisses)
	}
}

// A truncated entry (half the file gone — a crashed writer that somehow
// bypassed the atomic rename, or torn storage) is equally recoverable.
func TestTruncatedStoreEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	run := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)

	s1 := newTestServer(Options{StoreDir: dir})
	w1 := do(s1, "POST", "/v1/run", run, nil)
	paths, err := filepath.Glob(filepath.Join(dir, "*.svw"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("store files: %v, %v", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(Options{StoreDir: dir})
	w2 := do(s2, "POST", "/v1/run", run, nil)
	if h := w2.Header().Get(api.CacheHeader); h != api.CacheMiss {
		t.Fatalf("truncated entry served as %q, want recompute", h)
	}
	if !bytes.Equal(w2.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("recomputed run differs from the original")
	}
}

// The api header constants are the wire spellings of store.Origin: the
// two enumerations must never drift, since servers set the header from
// Origin.String() and the coordinator compares it against the constants.
func TestCacheHeaderValuesMatchStoreOrigins(t *testing.T) {
	pairs := []struct {
		origin store.Origin
		want   string
	}{
		{store.OriginMemory, api.CacheMemory},
		{store.OriginDisk, api.CacheDisk},
		{store.OriginPeer, api.CachePeer},
		{store.OriginMiss, api.CacheMiss},
	}
	for _, p := range pairs {
		if got := p.origin.String(); got != p.want {
			t.Errorf("store origin %d spells %q, api constant is %q", p.origin, got, p.want)
		}
	}
}
