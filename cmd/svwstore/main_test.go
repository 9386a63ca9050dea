package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"svwsim/internal/store"
)

// fixture writes one entry per key into a fresh tier directory, each
// last accessed age ago (ages in the keys' order), and returns the
// directory and each key's file name.
func fixture(t *testing.T, keys []string, ages []time.Duration) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := d.Put(k, bytes.Repeat([]byte(k), 20)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := store.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]string)
	for _, e := range entries {
		names[e.Key] = e.Name
	}
	now := time.Now()
	for i, k := range keys {
		mt := now.Add(-ages[i])
		if err := os.Chtimes(filepath.Join(dir, names[k]), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	return dir, names
}

// svwstore runs the command in-process and returns its exit status and
// standard output.
func svwstore(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("svwstore %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	return code, stdout.String()
}

func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

func TestLSOldestAccessFirst(t *testing.T) {
	keys := []string{"fresh", "oldest", "middle"}
	dir, _ := fixture(t, keys, []time.Duration{time.Minute, 3 * time.Hour, time.Hour})
	code, out := svwstore(t, "ls", dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[3], "3 entries, ") {
		t.Fatalf("want 3 entry lines and a total, got %q", lines)
	}
	for i, want := range []string{"oldest", "middle", "fresh"} {
		if f := strings.Fields(lines[i]); f[len(f)-1] != want {
			t.Errorf("line %d lists %q, want %q (oldest access first)", i, f[len(f)-1], want)
		}
	}
}

func TestPruneOlderThan(t *testing.T) {
	keys := []string{"aged-a", "aged-b", "fresh"}
	dir, names := fixture(t, keys, []time.Duration{48 * time.Hour, 25 * time.Hour, time.Minute})
	code, out := svwstore(t, "prune", "-older-than", "24h", dir)
	if code != 0 || !strings.Contains(out, "removed 2 entries") {
		t.Fatalf("exit %d, output %q; want 2 entries removed", code, out)
	}
	for _, k := range keys {
		if got, want := exists(t, filepath.Join(dir, names[k])), k == "fresh"; got != want {
			t.Errorf("%s present = %v, want %v", k, got, want)
		}
	}
	if code, _ := svwstore(t, "prune", dir); code != 2 {
		t.Errorf("prune without -older-than: exit %d, want 2", code)
	}
}

func TestVerifyFlippedByte(t *testing.T) {
	keys := []string{"good", "flipped"}
	dir, names := fixture(t, keys, []time.Duration{time.Minute, time.Minute})
	if code, _ := svwstore(t, "verify", dir); code != 0 {
		t.Fatalf("clean directory: exit %d, want 0", code)
	}
	bad := filepath.Join(dir, names["flipped"])
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x20
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := svwstore(t, "verify", dir)
	if code == 0 || !strings.Contains(out, "1 corrupt") {
		t.Fatalf("flipped byte: exit %d, output %q; want non-zero and 1 corrupt", code, out)
	}
	if !exists(t, bad) {
		t.Fatal("verify without -delete removed the entry")
	}
	if code, _ := svwstore(t, "verify", "-delete", dir); code != 0 {
		t.Fatalf("verify -delete: exit %d, want 0", code)
	}
	if exists(t, bad) {
		t.Fatal("verify -delete left the corrupt entry")
	}
	if !exists(t, filepath.Join(dir, names["good"])) {
		t.Fatal("verify -delete removed a valid entry")
	}
	if code, _ := svwstore(t, "verify", dir); code != 0 {
		t.Fatalf("after -delete: exit %d, want 0", code)
	}
}

func TestGCMaxBytes(t *testing.T) {
	keys := []string{"k-newest", "k-oldest", "k-middle"}
	dir, names := fixture(t, keys, []time.Duration{time.Minute, 3 * time.Hour, time.Hour})
	entries, err := store.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := entries[0].Size // all three entries are the same size
	budget := strconv.FormatInt(2*size, 10)
	code, out := svwstore(t, "gc", "-max-bytes", budget, dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "removed 1 entries, "+budget+" bytes remain") {
		t.Fatalf("output %q, want the oldest entry removed and the cap met", out)
	}
	for _, k := range keys {
		if got, want := exists(t, filepath.Join(dir, names[k])), k != "k-oldest"; got != want {
			t.Errorf("%s present = %v, want %v", k, got, want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"ls"},
		{"ls", "a", "b"},
		{"gc", "-max-bytes", "lots", t.TempDir()},
	} {
		if code, _ := svwstore(t, args...); code != 2 {
			t.Errorf("svwstore %q: exit %d, want 2", args, code)
		}
	}
}
