package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// newStoppedWriteBehind builds a writeBehind WITHOUT its flusher, so tests
// can observe queue state deterministically and start the drain themselves.
func newStoppedWriteBehind(d *Disk, capacity int) *writeBehind {
	w := &writeBehind{
		disk:     d,
		capacity: capacity,
		pending:  make(map[string]*wbEntry),
		landing:  make(map[string]*wbEntry),
		done:     make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Re-enqueueing a queued key must update it in place (last-wins), a full
// queue must drop (counted), and close must drain everything that was
// accepted — the three load-bearing semantics of the queue, checked with
// the flusher parked so the queue state is observable.
func TestWriteBehindDedupeDropAndDrain(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	w := newStoppedWriteBehind(d, 3)

	w.enqueue("a", []byte("a-stale"))
	w.enqueue("a", []byte("a-fresh")) // last-wins: still one queued entry
	w.enqueue("b", []byte("B"))
	w.enqueue("c", []byte("C"))
	w.enqueue("d", []byte("D")) // queue full: dropped, not blocked

	w.mu.Lock()
	queued, drops := len(w.queue), w.drops
	w.mu.Unlock()
	if queued != 3 {
		t.Fatalf("queue has %d entries, want 3 (a deduped, d dropped)", queued)
	}
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}

	go w.run()
	w.close()

	for key, want := range map[string]string{"a": "a-fresh", "b": "B", "c": "C"} {
		got, ok := d.Get(key)
		if !ok || !bytes.Equal(got, []byte(want)) {
			t.Errorf("after drain, %s = %q, %v, want %q", key, got, ok, want)
		}
	}
	if _, ok := d.Get("d"); ok {
		t.Error("dropped entry landed on disk anyway")
	}
	if st := w.stats(); st.Depth != 0 || st.Drops != 1 || st.Flushes < 1 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// A completion racing graceful shutdown must still persist: enqueue after
// close falls back to a synchronous write instead of losing the result.
func TestWriteBehindEnqueueAfterCloseIsSynchronous(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	w := newWriteBehind(d, 8)
	w.close()
	w.enqueue("late", []byte("still lands"))
	if got, ok := d.Get("late"); !ok || !bytes.Equal(got, []byte("still lands")) {
		t.Fatalf("post-close enqueue: %q, %v, want a synchronous write", got, ok)
	}
	w.close() // idempotent
}

// The Store-level contract: with WriteBehind configured, Flush makes every
// Put durable (a reopened store serves them from disk), Close drains, and
// Stats surfaces the queue.
func TestStoreWriteBehindFlushDurability(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{MemoryEntries: 2, Dir: dir, WriteBehind: 64})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	s.Flush()
	st := s.Stats()
	if !st.WriteBehind.Enabled || st.WriteBehind.Depth != 0 {
		t.Fatalf("write-behind stats after Flush: %+v", st.WriteBehind)
	}
	if st.WriteBehind.Flushes < 1 {
		t.Fatalf("flushes = %d, want >= 1", st.WriteBehind.Flushes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, Options{MemoryEntries: 2, Dir: dir})
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, o := s2.Get(key)
		if o == OriginMiss || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("%s after restart: %q, %v — a buffered write was lost", key, v, o)
		}
	}
}

// A store without a disk tier must ignore WriteBehind (nothing to buffer),
// and Flush/Close stay safe no-ops.
func TestStoreWriteBehindWithoutDisk(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 2, WriteBehind: 64})
	s.Put("a", []byte("A"))
	s.Flush()
	if st := s.Stats(); st.WriteBehind.Enabled {
		t.Fatalf("write-behind enabled without a disk tier: %+v", st.WriteBehind)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Regression: the Get adoption path (an entry another instance wrote into
// a shared directory) used to index the file without running the GC, so a
// read-mostly daemon grew past maxBytes without bound until its next local
// Put. Adoption alone must now keep the tier within budget.
func TestDiskAdoptionTriggersGC(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("z"), 150)
	entryBytes := int64(len(encodeEntry("key-0", val)))

	// The capped instance opens over an EMPTY directory; everything it
	// later sees arrives via adoption, never via its own Put.
	capped := openDisk(t, dir, 2*entryBytes)
	writer := openDisk(t, dir, 0)
	for i := 0; i < 6; i++ {
		if err := writer.Put(fmt.Sprintf("key-%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		// Adoptions only; whether a given Get hits depends on what earlier
		// adoptions evicted, so only the budget invariant is asserted.
		capped.Get(fmt.Sprintf("key-%d", i))
		if st := capped.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("after adopting key-%d: %d bytes > %d budget (%+v)",
				i, st.Bytes, st.MaxBytes, st)
		}
	}
	st := capped.Stats()
	if st.Evictions < 4 {
		t.Fatalf("evictions = %d, want >= 4 (6 adoptions into a 2-entry budget): %+v",
			st.Evictions, st)
	}
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2: %+v", st.Entries, st)
	}
}

// EncodeEntry/DecodeEntry are the peer-read wire protocol: a round trip
// preserves the bytes, and a mangled or misdirected reply is rejected.
func TestEntryWireRoundTrip(t *testing.T) {
	key, val := "cfg|gcc|300000", []byte(`{"Bench":"gcc"}`)
	raw := EncodeEntry(key, val)
	got, ok := DecodeEntry(raw, key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("round trip: %q, %v", got, ok)
	}
	if _, ok := DecodeEntry(raw, "another-key"); ok {
		t.Fatal("entry decoded under the wrong key")
	}
	raw[len(raw)-1] ^= 0x01
	if _, ok := DecodeEntry(raw, key); ok {
		t.Fatal("bit-flipped entry decoded")
	}
	if _, ok := DecodeEntry(nil, key); ok {
		t.Fatal("empty reply decoded")
	}
}

// Read-your-writes: a result the store accepted must stay servable while
// its disk write is still queued, even after the memory tier has evicted
// it. Each miss here would be a needless re-simulation.
func TestStoreGetServesQueuedWrites(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 1, Dir: t.TempDir(), WriteBehind: 64})
	defer s.Close()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("val-%d", i))
		s.Put(key, val)
		s.Put(key+"x", []byte("evicts key from the 1-entry memory tier"))
		got, o := s.Get(key)
		if o != OriginDisk || !bytes.Equal(got, val) {
			t.Fatalf("Get %s right after Put = %q, %v, want %q from the disk tier", key, got, o, val)
		}
		s.Flush() // keep the queue from filling: a full queue drops by design
	}
	if st := s.Stats(); st.WriteBehind.Drops != 0 {
		t.Fatalf("write-behind dropped %d writes", st.WriteBehind.Drops)
	}
}

// An entry the flusher has claimed stays readable until its Disk.Put
// lands; a newer enqueue of the same key supersedes it.
func TestWriteBehindClaimedEntriesReadable(t *testing.T) {
	d := openDisk(t, t.TempDir(), 0)
	w := newStoppedWriteBehind(d, 8)
	w.enqueue("a", []byte("v1"))
	batch := w.claim()
	if got, ok := w.get("a"); !ok || string(got) != "v1" {
		t.Fatalf("claimed entry: %q, %v, want v1", got, ok)
	}
	w.enqueue("a", []byte("v2"))
	if got, ok := w.get("a"); !ok || string(got) != "v2" {
		t.Fatalf("re-enqueued entry: %q, %v, want the newer v2", got, ok)
	}
	for _, e := range batch {
		if err := d.Put(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
	w.landed()
	if got, ok := w.get("a"); !ok || string(got) != "v2" {
		t.Fatalf("after the claimed batch landed: %q, %v, want the queued v2", got, ok)
	}
	go w.run()
	w.close()
	if _, ok := w.get("a"); ok {
		t.Fatal("entry still in the queue after the drain")
	}
	if got, ok := d.Get("a"); !ok || string(got) != "v2" {
		t.Fatalf("on disk after the drain: %q, %v, want v2", got, ok)
	}
}

// DecodeEntry serves the peer wire path, whose buffer belongs to the
// caller: the value must not alias it.
func TestDecodeEntryCopies(t *testing.T) {
	raw := EncodeEntry("k", []byte("value"))
	got, ok := DecodeEntry(raw, "k")
	if !ok {
		t.Fatal("decode failed")
	}
	for i := range raw {
		raw[i] = 0
	}
	if string(got) != "value" {
		t.Fatalf("value changed with the wire buffer: %q", got)
	}
}
