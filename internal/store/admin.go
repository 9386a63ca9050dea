package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Offline administration of a disk-tier directory, backing the svwstore
// CLI. A live Disk indexes only what it has seen (its own Puts plus
// adopted Gets), so its size-cap GC acts on its own view of the total —
// several daemons sharing one directory can each be under budget while
// the directory is over it. These functions always start from a full
// directory re-scan, so their decisions cover everything actually
// present, whoever wrote it.

// ScanEntry describes one entry file found by ScanDir.
type ScanEntry struct {
	Name string // file name under the directory
	Key  string // embedded store key ("" when unreadable)
	Size int64  // whole file size (header + key + value)
	// ModTime is the last access at one-minute resolution: writes set the
	// mtime, and reads refresh it best-effort, at most once a minute.
	ModTime time.Time
	// Err classifies the entry: nil = valid, wraps ErrStaleVersion for a
	// well-formed entry from another format version, anything else is
	// corruption (bad magic, truncation, checksum or filename mismatch).
	Err error
}

// ScanDir reads every entry in a disk-tier directory with full validation
// — the same checks a serving Get performs, plus that the file sits at
// its key's content address. Entries come back oldest-access-first (the
// GC order). Leftover temp files are ignored; nothing is modified.
func ScanDir(dir string) ([]ScanEntry, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	var out []ScanEntry
	for _, e := range files {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, diskTmpPrefix) || !strings.HasSuffix(name, diskSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted between readdir and stat
		}
		se := ScanEntry{Name: name, Size: info.Size(), ModTime: info.ModTime()}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		switch {
		case err != nil:
			se.Err = err
		default:
			var key string
			key, _, se.Err = parseEntry(raw)
			se.Key = key
			if se.Err == nil && fileName(key) != name {
				se.Err = errors.New("entry filed under the wrong content address")
			}
		}
		out = append(out, se)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModTime.Before(out[j].ModTime) })
	return out, nil
}

// GCDir enforces maxBytes (0 = DefaultDiskMaxBytes) over everything in
// dir: leftover temp files are removed, then least-recently-accessed
// entries are deleted until the directory fits the budget — keeping at
// least the newest entry, like the live GC. It returns what was removed
// (oldest first) and the byte total left behind.
func GCDir(dir string, maxBytes int64) (removed []ScanEntry, remaining int64, err error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	for _, e := range files {
		if strings.HasPrefix(e.Name(), diskTmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	entries, err := ScanDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range entries {
		remaining += e.Size
	}
	kept := len(entries)
	for _, e := range entries {
		if remaining <= maxBytes || kept <= 1 {
			break
		}
		if err := os.Remove(filepath.Join(dir, e.Name)); err != nil {
			return removed, remaining, fmt.Errorf("store: gc %s: %w", e.Name, err)
		}
		remaining -= e.Size
		kept--
		removed = append(removed, e)
	}
	return removed, remaining, nil
}

// PruneDir deletes every entry whose last access is before cutoff,
// returning what was removed (oldest first). Unlike GCDir it has no
// keep-one floor: pruning a directory empty is what was asked for.
func PruneDir(dir string, cutoff time.Time) ([]ScanEntry, error) {
	entries, err := ScanDir(dir)
	if err != nil {
		return nil, err
	}
	var removed []ScanEntry
	for _, e := range entries {
		if !e.ModTime.Before(cutoff) {
			break // oldest-first: everything after is newer
		}
		if err := os.Remove(filepath.Join(dir, e.Name)); err != nil {
			return removed, fmt.Errorf("store: prune %s: %w", e.Name, err)
		}
		removed = append(removed, e)
	}
	return removed, nil
}
