package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The on-disk entry format. Every entry is one file named by the SHA-256
// of its key (content addressing: the key IS the identity, so concurrent
// writers of the same key converge on the same file and the same bytes):
//
//	offset size  field
//	0      4     magic "SVWS"
//	4      4     format version (little-endian uint32)
//	8      4     key length (little-endian uint32)
//	12     4     value length (little-endian uint32)
//	16     4     CRC-32 (IEEE) of key bytes + value bytes
//	20     k     key bytes (verbatim engine memo key)
//	20+k   v     value bytes
//
// Readers validate everything — magic, version, lengths against the bytes
// read, checksum, and that the stored key matches the requested one (a
// SHA-256 collision or a renamed file would otherwise serve the wrong
// result). Any mismatch means the entry is ignored and deleted, never
// misread: a truncated write, a bit flip, or an entry from an older
// schema version all degrade to a cache miss and a recompute.
//
// A warm read is one open, one read and one close: the index knows the
// entry's size, so Get reads exactly that many bytes into one buffer and
// returns the value as a subslice of it. An entry's mtime records its last
// access at one-minute resolution (touchEvery): reads refresh it at most
// once a minute, which is all the restart-surviving GC order needs.
//
// diskVersion is also the invalidation knob for *payload* semantics: the
// store key (engine.Fingerprint) covers configuration, benchmark and
// budget but not the simulator's code, so a change that alters simulation
// output for unchanged configs (a timing fix, a stats change) MUST bump
// diskVersion — old directories then degrade to misses and recompute
// instead of serving stale pre-fix results as if they were current.
const (
	diskMagic      = "SVWS"
	diskVersion    = 1
	diskHeaderSize = 20
	diskSuffix     = ".svw"
	diskTmpPrefix  = ".tmp-"
)

// DefaultDiskMaxBytes caps a disk tier that was not given an explicit
// budget.
const DefaultDiskMaxBytes = 1 << 30 // 1 GiB

// DiskStats snapshots the disk tier's state and counters.
type DiskStats struct {
	Entries   int
	Bytes     int64
	MaxBytes  int64
	Evictions uint64 // entries removed by the size-cap GC
	Corrupt   uint64 // entries dropped by validation (checksum, header, key)
	// WriteErrors counts failed Puts (disk full, permissions): the tier
	// keeps serving what it has, but new results are not persisting —
	// surfaced so a dying disk is visible in /v1/stats before a restart
	// discovers it as a cold store.
	WriteErrors uint64
}

// touchEvery bounds how stale an entry's mtime may get while it is being
// read: a Get refreshes the mtime only when this process last set it more
// than touchEvery ago, so a hot entry costs one utimensat a minute rather
// than one per hit.
const touchEvery = time.Minute

// diskFile is the in-memory index record for one on-disk entry.
type diskFile struct {
	size int64
	// touched is when this process last set (or, on open, observed) the
	// entry's mtime.
	touched time.Time
}

// Disk is the persistent tier: one checksummed file per key under dir,
// bounded to maxBytes by evicting least-recently-accessed entries. It is
// safe for concurrent use, including by multiple Disk instances over the
// same directory (writes are atomic renames; readers validate what they
// find), though each instance GCs only against its own view of the total.
type Disk struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index *LRU[*diskFile] // file name -> record, recency = access order
	total int64

	evictions   uint64
	corrupt     uint64
	writeErrors uint64
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir. Leftover
// temp files from a crashed writer are removed; existing entries are
// indexed oldest-access-first using file mtimes, so the GC's LRU order
// survives a restart (reads bump mtime best-effort, at most once per
// touchEvery). maxBytes <= 0 falls back to DefaultDiskMaxBytes.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening disk tier: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning disk tier: %w", err)
	}
	type scanned struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []scanned
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, diskTmpPrefix) {
			// A writer died between create and rename; the entry never
			// existed as far as readers are concerned.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, diskSuffix) || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, scanned{name: name, size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	d := &Disk{dir: dir, maxBytes: maxBytes, index: NewLRU[*diskFile]()}
	for _, f := range files {
		d.index.Put(f.name, &diskFile{size: f.size, touched: f.mtime}) // Put order = recency order
		d.total += f.size
	}
	d.gcLocked()
	return d, nil
}

// Dir returns the tier's root directory.
func (d *Disk) Dir() string { return d.dir }

// fileName is the content address of key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + diskSuffix
}

// entryPath returns the path of key's entry file — dir, a slash, then
// fileName(key) — in one allocation; the file name is its suffix after
// len(d.dir)+1 bytes.
func (d *Disk) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return d.dir + "/" + string(hx[:]) + diskSuffix
}

// Get returns the stored value for key, or false on miss. A file that
// fails validation — wrong magic, unknown version, bad lengths, checksum
// mismatch, or a stored key that differs from the requested one — is
// deleted and reported as a miss, so corruption costs a recompute, never
// a wrong answer.
//
// An indexed entry is read with one open, one read of its indexed size
// and one close, and the value returned aliases that one buffer. The
// entry's mtime is refreshed only when this process last set it more than
// touchEvery ago, or when the entry is adopted.
func (d *Disk) Get(key string) ([]byte, bool) {
	path := d.entryPath(key)
	name := path[len(d.dir)+1:]
	d.mu.Lock()
	size := int64(-1)
	if f, ok := d.index.Peek(name); ok {
		size = f.size
	}
	d.mu.Unlock()
	raw, err := readEntry(path, size)
	if err != nil {
		if os.IsNotExist(err) {
			// Deindex only a confirmed-absent file; a transient read error
			// (fd exhaustion, EIO) must not desync the index and byte
			// total from what is actually on disk. Re-stat under the lock:
			// a concurrent Put may have landed the entry between our read
			// and here, and its fresh index entry must survive.
			d.mu.Lock()
			if _, statErr := os.Stat(path); os.IsNotExist(statErr) {
				d.dropLocked(name)
			}
			d.mu.Unlock()
		}
		return nil, false
	}
	val, ok := decodeEntry(raw, key)
	d.mu.Lock()
	if !ok {
		// Delete the corrupt entry — unless the file changed size since
		// our read, which means a concurrent Put replaced it with a fresh
		// entry that must not be destroyed over stale bytes. (A same-size
		// replacement in that window is indistinguishable; the next Get
		// simply re-reads it.) Either way this request is a miss.
		if info, statErr := os.Stat(path); statErr == nil && info.Size() == int64(len(raw)) {
			d.corrupt++
			d.dropLocked(name)
			os.Remove(path)
		}
		d.mu.Unlock()
		return nil, false
	}
	now := time.Now()
	f, indexed := d.index.Get(name)
	if indexed {
		// Another instance may have rewritten the entry at another size;
		// keep the byte total true to what was just read.
		d.total += int64(len(raw)) - f.size
		f.size = int64(len(raw))
	} else {
		// Another instance (or a pre-restart run) wrote it; adopt it — and
		// GC immediately. Adoption used to skip the GC, so a daemon reading
		// a shared directory grew its tier unboundedly past maxBytes until
		// the next local Put happened to trigger one. The adopted entry is
		// the index's newest, so it survives the sweep itself. Its zero
		// touched time makes this read refresh the mtime.
		f = &diskFile{size: int64(len(raw))}
		d.index.Put(name, f)
		d.total += int64(len(raw))
		d.gcLocked()
	}
	touch := now.Sub(f.touched) > touchEvery
	if touch {
		f.touched = now
	}
	d.mu.Unlock()
	if touch {
		// Bump mtime so access recency survives a restart; best-effort, and
		// outside the lock so a slow filesystem cannot stall other requests.
		os.Chtimes(path, now, now)
	}
	return val, true
}

// readEntry reads the entry file at path. With the size the index holds
// for it (size >= 0), that is one open, one read into a buffer of size+1
// bytes, and one close: it reads on only while fewer than size bytes have
// arrived and the file has not ended. A full buffer means the file grew
// behind the index (another instance rewrote it), and the read starts over
// with os.ReadFile, as it does for an entry the index does not know
// (size < 0).
func readEntry(path string, size int64) ([]byte, error) {
	if size < 0 {
		return os.ReadFile(path)
	}
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	buf := make([]byte, size+1)
	n := 0
	for {
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			syscall.Close(fd)
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		}
		n += m
		if m == 0 || int64(n) >= size {
			break
		}
	}
	syscall.Close(fd)
	if n == len(buf) {
		return os.ReadFile(path)
	}
	return buf[:n], nil
}

// Put stores val under key: encoded to a temp file in the same directory,
// then renamed into place, so readers only ever observe complete entries.
// Oversized tiers shed least-recently-accessed entries afterwards.
func (d *Disk) Put(key string, val []byte) error {
	path := d.entryPath(key)
	name := path[len(d.dir)+1:]
	buf := encodeEntry(key, val)

	if err := d.writeFile(path, buf); err != nil {
		d.mu.Lock()
		d.writeErrors++
		d.mu.Unlock()
		return err
	}
	now := time.Now()

	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked(name) // replacing: retire the old size before adding the new
	d.index.Put(name, &diskFile{size: int64(len(buf)), touched: now})
	d.total += int64(len(buf))
	d.gcLocked()
	return nil
}

// writeFile lands buf at path via temp file + rename.
func (d *Disk) writeFile(path string, buf []byte) error {
	tmp, err := os.CreateTemp(d.dir, diskTmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: writing entry: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing entry: %w", err)
	}
	return nil
}

// dropLocked removes name from the index (not the filesystem), keeping the
// byte total consistent.
func (d *Disk) dropLocked(name string) {
	if f, ok := d.index.Peek(name); ok {
		d.index.Delete(name)
		d.total -= f.size
	}
}

// gcLocked evicts least-recently-accessed entries until the tier fits its
// byte budget. The newest entry is always kept, even if it alone exceeds
// the budget — an empty store would just recompute-and-GC forever.
func (d *Disk) gcLocked() {
	for d.total > d.maxBytes && d.index.Len() > 1 {
		name, f, ok := d.index.EvictOldest()
		if !ok {
			return
		}
		d.total -= f.size
		d.evictions++
		os.Remove(filepath.Join(d.dir, name))
	}
}

// SyncDir fsyncs the tier's directory, making every rename landed so far
// durable in one metadata flush. The synchronous Put path leaves this to
// the OS; the write-behind flusher calls it once per batch, amortizing
// the sync across the whole batch. Best-effort: a filesystem that cannot
// sync directories just returns the error.
func (d *Disk) SyncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Stats snapshots the tier.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries:     d.index.Len(),
		Bytes:       d.total,
		MaxBytes:    d.maxBytes,
		Evictions:   d.evictions,
		Corrupt:     d.corrupt,
		WriteErrors: d.writeErrors,
	}
}

// encodeEntry serializes one entry in the on-disk format.
func encodeEntry(key string, val []byte) []byte {
	buf := make([]byte, diskHeaderSize+len(key)+len(val))
	copy(buf[0:4], diskMagic)
	binary.LittleEndian.PutUint32(buf[4:8], diskVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(val)))
	copy(buf[diskHeaderSize:], key)
	copy(buf[diskHeaderSize+len(key):], val)
	crc := crc32.ChecksumIEEE(buf[diskHeaderSize:])
	binary.LittleEndian.PutUint32(buf[16:20], crc)
	return buf
}

// ErrStaleVersion marks a well-formed entry written under a different
// format version — not corruption, but not servable either (the version
// is the payload-semantics invalidation knob; see the format comment).
var ErrStaleVersion = errors.New("store: entry from a different format version")

// parseEntry decodes one on-disk entry without knowing its key in
// advance, returning the embedded key and value when every integrity
// check passes. An error wrapping ErrStaleVersion means a valid entry
// from another schema version; any other error means corruption.
func parseEntry(raw []byte) (key string, val []byte, err error) {
	k, val, err := splitEntry(raw)
	return string(k), val, err
}

// splitEntry checks raw's magic, version, lengths and checksum, and
// returns its key and value as subslices of raw; the value is full
// capacity, so raw's backing array becomes the value's own.
func splitEntry(raw []byte) (key, val []byte, err error) {
	if len(raw) < diskHeaderSize || string(raw[0:4]) != diskMagic {
		return nil, nil, errors.New("bad magic or truncated header")
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != diskVersion {
		return nil, nil, fmt.Errorf("%w: version %d (want %d)", ErrStaleVersion, v, diskVersion)
	}
	keyLen := int64(binary.LittleEndian.Uint32(raw[8:12]))
	valLen := int64(binary.LittleEndian.Uint32(raw[12:16]))
	if int64(len(raw)) != diskHeaderSize+keyLen+valLen {
		return nil, nil, errors.New("length mismatch: truncated or padded")
	}
	if crc32.ChecksumIEEE(raw[diskHeaderSize:]) != binary.LittleEndian.Uint32(raw[16:20]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	return raw[diskHeaderSize : diskHeaderSize+keyLen], raw[diskHeaderSize+keyLen : len(raw) : len(raw)], nil
}

// decodeEntry validates raw against the format and wantKey, returning the
// value on success without a copy: it aliases raw. Stale-version entries
// are ignored, not guessed at.
func decodeEntry(raw []byte, wantKey string) ([]byte, bool) {
	key, val, err := splitEntry(raw)
	if err != nil || string(key) != wantKey {
		return nil, false
	}
	return val, true
}

// EncodeEntry serializes one entry in the on-disk format. It is the wire
// encoding of the peer-read protocol too: a store owner answers
// GET /v1/store/{key} with exactly these bytes, so the requester runs the
// same validation it runs on local files.
func EncodeEntry(key string, val []byte) []byte { return encodeEntry(key, val) }

// DecodeEntry validates an encoded entry against wantKey, returning the
// value on success. A corrupt or mismatched entry — bad magic, stale
// version, length or checksum mismatch, or a different embedded key — is
// (nil, false): a peer answer that fails here degrades to a cache miss,
// never a wrong answer.
//
// Unlike the disk tier's own reads, the value is a copy: raw is the
// caller's buffer, not the store's.
func DecodeEntry(raw []byte, wantKey string) ([]byte, bool) {
	val, ok := decodeEntry(raw, wantKey)
	if !ok {
		return nil, false
	}
	return bytes.Clone(val), true
}
