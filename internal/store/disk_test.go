package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openDisk(t *testing.T, dir string, maxBytes int64) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRoundTrip(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	key, val := "cfg|gcc|300000", []byte(`{"Bench":"gcc"}`)
	if _, ok := d.Get(key); ok {
		t.Fatal("hit on empty tier")
	}
	if err := d.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Replacing a key keeps one entry and the newest bytes.
	val2 := []byte(`{"Bench":"gcc","v":2}`)
	if err := d.Put(key, val2); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get(key); !bytes.Equal(got, val2) {
		t.Fatalf("after replace Get = %q", got)
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 entry", st)
	}
}

// A second Disk over the same directory — a restarted process — serves
// what the first one wrote.
func TestDiskWarmReopen(t *testing.T) {
	dir := t.TempDir()
	d1 := openDisk(t, dir, 0)
	for i := 0; i < 5; i++ {
		if err := d1.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	d2 := openDisk(t, dir, 0)
	if st := d2.Stats(); st.Entries != 5 {
		t.Fatalf("reopened tier has %d entries, want 5", st.Entries)
	}
	for i := 0; i < 5; i++ {
		got, ok := d2.Get(fmt.Sprintf("key-%d", i))
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key-%d after reopen: %q, %v", i, got, ok)
		}
	}
}

// entryPath returns the file backing key, which must exist.
func entryPath(t *testing.T, d *Disk, key string) string {
	t.Helper()
	path := filepath.Join(d.Dir(), fileName(key))
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiskCorruptionDetected(t *testing.T) {
	corruptions := []struct {
		name    string
		mangle  func(raw []byte) []byte
		corrupt bool // counted as corrupt (vs plain miss)
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }, true},
		{"bitflip-payload", func(raw []byte) []byte {
			raw[len(raw)-1] ^= 0x40
			return raw
		}, true},
		{"bitflip-header", func(raw []byte) []byte {
			raw[1] ^= 0x01 // magic
			return raw
		}, true},
		{"future-version", func(raw []byte) []byte {
			raw[4] = diskVersion + 1 // schema from the future: ignore, don't misread
			return raw
		}, true},
		{"empty-file", func(raw []byte) []byte { return nil }, true},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			d := openDisk(t, t.TempDir(), 0)
			key, val := "the-key", []byte("the-value")
			if err := d.Put(key, val); err != nil {
				t.Fatal(err)
			}
			path := entryPath(t, d, key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry not deleted")
			}
			if st := d.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt count %d, want 1 (stats %+v)", st.Corrupt, st)
			}
			// The slot is usable again: a recompute stores and serves.
			if err := d.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("rewrite after corruption: %q, %v", got, ok)
			}
		})
	}
}

// An entry whose stored key differs from the requested one (a renamed
// file) must not be served under the wrong key.
func TestDiskKeyMismatchRejected(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	if err := d.Put("real-key", []byte("real-value")); err != nil {
		t.Fatal(err)
	}
	src := entryPath(t, d, "real-key")
	dst := filepath.Join(d.Dir(), fileName("other-key"))
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get("other-key"); ok {
		t.Fatalf("renamed entry served under the wrong key: %q", got)
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count %d, want 1", st.Corrupt)
	}
}

func TestDiskGCByAccessRecency(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("x"), 100)
	entryBytes := int64(len(encodeEntry("key-0", val)))
	// Room for exactly 3 entries.
	d := openDisk(t, dir, 3*entryBytes)
	for i := 0; i < 3; i++ {
		if err := d.Put(fmt.Sprintf("key-%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	d.Get("key-0") // refresh: key-1 is now the LRU entry
	if err := d.Put("key-3", val); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("key-1"); ok {
		t.Fatal("key-1 survived, want it GCed as least recently accessed")
	}
	for _, k := range []string{"key-0", "key-2", "key-3"} {
		if _, ok := d.Get(k); !ok {
			t.Fatalf("%s was GCed despite being more recently used", k)
		}
	}
	st := d.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats %+v", st)
	}
}

// Even a single entry larger than the whole budget is kept: the newest
// write always survives, or the tier would thrash forever.
func TestDiskOversizedEntryKept(t *testing.T) {
	d := openDisk(t, t.TempDir(), 10)
	if err := d.Put("big", bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("big"); !ok {
		t.Fatal("oversized entry was GCed immediately")
	}
}

// Leftover temp files from a crashed writer are swept on open and never
// indexed as entries.
func TestDiskOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, diskTmpPrefix+"12345")
	if err := os.WriteFile(tmp, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDisk(t, dir, 0)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("temp file survived open")
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Fatalf("temp file was indexed: %+v", st)
	}
}

// Non-entry files (a README, a subdirectory) are ignored, not deleted.
func TestDiskOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	readme := filepath.Join(dir, "README")
	if err := os.WriteFile(readme, []byte("hands off"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	d := openDisk(t, dir, 0)
	if st := d.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files indexed: %+v", st)
	}
	if _, err := os.Stat(readme); err != nil {
		t.Error("foreign file was deleted")
	}
}

func TestDiskGCOnOpen(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("y"), 200)
	d1 := openDisk(t, dir, 0)
	for i := 0; i < 6; i++ {
		if err := d1.Put(fmt.Sprintf("key-%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	entryBytes := int64(len(encodeEntry("key-0", val)))
	// Reopen with a 2-entry budget: the 4 oldest entries are shed.
	d2 := openDisk(t, dir, 2*entryBytes)
	if st := d2.Stats(); st.Entries != 2 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats after shrinking reopen: %+v", st)
	}
}

// fileName must stay content-addressed: same key same name, different key
// different name, and names must be plain hex files (no path separators).
func TestDiskFileName(t *testing.T) {
	a, b := fileName("key-a"), fileName("key-b")
	if a == b {
		t.Fatal("distinct keys share a file name")
	}
	if a != fileName("key-a") {
		t.Fatal("file name is not deterministic")
	}
	if strings.ContainsAny(a, "/\\") || !strings.HasSuffix(a, diskSuffix) {
		t.Fatalf("suspicious file name %q", a)
	}
}

// A Put that cannot land (the directory vanished — disk gone, volume
// unmounted) is counted, so a dying tier is visible in stats instead of
// silently not persisting.
func TestDiskWriteErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, 0)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("key", []byte("val")); err == nil {
		t.Fatal("Put into a removed directory succeeded")
	}
	if st := d.Stats(); st.WriteErrors != 1 {
		t.Fatalf("write errors %d, want 1 (stats %+v)", st.WriteErrors, st)
	}
}

// A transient read failure must not deindex a live entry; only a
// confirmed-absent file is dropped from the index.
func TestDiskGetMissingFileDeindexes(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	if err := d.Put("key", []byte("val")); err != nil {
		t.Fatal(err)
	}
	os.Remove(entryPath(t, d, "key"))
	if _, ok := d.Get("key"); ok {
		t.Fatal("served a deleted entry")
	}
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("deleted entry still indexed: %+v", st)
	}
}

// Two instances share a directory and B rewrites an entry A has indexed
// at another size. A's sized read must still serve B's bytes: a longer
// file overflows the indexed size and falls back to a whole-file read, a
// shorter one simply reads short. Neither is corruption. The "empty" case
// has A index an empty file at open (size 0), which a sized read must
// still find grown.
func TestDiskSizedReadFollowsRewrites(t *testing.T) {
	for _, c := range []struct {
		name string
		old  []byte // what A indexes: its own Put of old, or nil for an empty file
		val  []byte // B's rewrite
	}{
		{"longer", bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("L"), 300)},
		{"shorter", bytes.Repeat([]byte("a"), 100), []byte("s")},
		{"empty", nil, []byte("v")},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			key := "gcc|10000|shared"
			if c.old == nil {
				if err := os.WriteFile(filepath.Join(dir, fileName(key)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			a := openDisk(t, dir, 0)
			if c.old != nil {
				if err := a.Put(key, c.old); err != nil {
					t.Fatal(err)
				}
			}
			b := openDisk(t, dir, 0)
			if err := b.Put(key, c.val); err != nil {
				t.Fatal(err)
			}
			got, ok := a.Get(key)
			if !ok || !bytes.Equal(got, c.val) {
				t.Fatalf("A.Get after B's rewrite = %q, %v, want B's %d bytes", got, ok, len(c.val))
			}
			st := a.Stats()
			if st.Corrupt != 0 {
				t.Fatalf("rewrite counted as corruption: %+v", st)
			}
			if want := int64(len(encodeEntry(key, c.val))); st.Bytes != want {
				t.Fatalf("A's byte total %d, want %d (the size it just read)", st.Bytes, want)
			}
			entryPath(t, a, key) // the file survives
			if got, ok := a.Get(key); !ok || !bytes.Equal(got, c.val) {
				t.Fatalf("second A.Get = %q, %v", got, ok)
			}
		})
	}
}

// Reads refresh an entry's mtime at most once per touchEvery: an entry
// whose mtime this process set long ago is bumped by the next Get, and a
// Get within touchEvery of that leaves the mtime alone.
func TestDiskGetTouchesOncePerInterval(t *testing.T) {
	dir := t.TempDir()
	key := "gcc|10000|touched"
	if err := openDisk(t, dir, 0).Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(key))
	mtime := func() time.Time {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime()
	}
	aged := time.Now().Add(-2 * touchEvery).Truncate(time.Second)
	if err := os.Chtimes(path, aged, aged); err != nil {
		t.Fatal(err)
	}
	// A restart seeds each entry's last touch from its scanned mtime.
	d := openDisk(t, dir, 0)
	before := time.Now().Add(-time.Second)
	if _, ok := d.Get(key); !ok {
		t.Fatal("miss")
	}
	if mt := mtime(); mt.Before(before) {
		t.Fatalf("mtime %v after reading an entry aged past touchEvery, want >= %v", mt, before)
	}
	// Mark the file, then read again within touchEvery: no utimensat.
	marker := time.Now().Add(-touchEvery / 2).Truncate(time.Second)
	if err := os.Chtimes(path, marker, marker); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := d.Get(key); !ok {
			t.Fatal("miss")
		}
	}
	if mt := mtime(); !mt.Equal(marker) {
		t.Fatalf("mtime %v after Gets within touchEvery, want it left at %v", mt, marker)
	}
}
