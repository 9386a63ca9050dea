package store

import "sync"

// Write-behind batching for the disk tier. Sweep-heavy load completes
// hundreds of cells in bursts, and the synchronous write-through path
// pays one temp-file + rename per cell on the serving goroutine. A
// writeBehind decouples that: completions enqueue into a bounded buffer
// and return immediately, and a single background flusher drains the
// queue in whole-batch strides — one directory sync per batch instead of
// per entry, amortizing the metadata flush across every cell the batch
// carries.
//
// Semantics the rest of the store relies on:
//
//   - last-wins dedupe: re-enqueueing a queued key updates its value in
//     place, so a key costs one disk write no matter how often it is
//     completed while queued (idempotent writes make this safe — the
//     bytes are content-addressed by key);
//   - bounded: a full queue drops the write (counted in Stats) rather
//     than blocking the serving path — the memory tier still serves the
//     entry, the disk just stays cold for that key, exactly like an
//     absorbed synchronous write error;
//   - drains on Close: Close wakes the flusher, waits for every queued
//     entry to land, then stops it. Writers arriving after Close fall
//     back to synchronous Puts, so a racing completion is never lost;
//   - readable until landed: get finds a key from its enqueue until its
//     Disk.Put lands, queued or claimed by the flusher, so a result the
//     memory tier has already evicted is still served (read-your-writes).
type writeBehind struct {
	disk     *Disk
	capacity int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*wbEntry
	pending map[string]*wbEntry // queued (not yet claimed) entries by key
	landing map[string]*wbEntry // entries claimed by the flusher, not yet landed
	closed  bool

	flushes uint64 // batches landed (each = one directory sync)
	drops   uint64 // writes rejected by a full queue
	done    chan struct{}
}

type wbEntry struct {
	key string
	val []byte
}

// capacity bounds len(queue); newWriteBehind starts the flusher.
func newWriteBehind(disk *Disk, capacity int) *writeBehind {
	w := &writeBehind{
		disk:    disk,
		pending: make(map[string]*wbEntry),
		landing: make(map[string]*wbEntry),
		done:    make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.capacity = capacity
	go w.run()
	return w
}

// enqueue queues one write. Full queue = drop; after Close = synchronous
// fallback so late completions still persist.
func (w *writeBehind) enqueue(key string, val []byte) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.disk.Put(key, val)
		return
	}
	if e, ok := w.pending[key]; ok {
		e.val = val // last-wins: one queued write per key
		w.mu.Unlock()
		return
	}
	if len(w.queue) >= w.capacity {
		w.drops++
		w.mu.Unlock()
		return
	}
	e := &wbEntry{key: key, val: val}
	w.pending[key] = e
	w.queue = append(w.queue, e)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// get returns the newest value enqueued under key that is not yet on
// disk: a queued entry first (it supersedes a claimed one), then one the
// flusher has claimed but not landed.
func (w *writeBehind) get(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.pending[key]; ok {
		return e.val, true
	}
	if e, ok := w.landing[key]; ok {
		return e.val, true
	}
	return nil, false
}

// run is the flusher: claim the whole queue, land it, sync the directory
// once, repeat. Exits only when closed AND drained.
func (w *writeBehind) run() {
	defer close(w.done)
	for {
		batch := w.claim()
		if len(batch) == 0 {
			return
		}
		for _, e := range batch {
			w.disk.Put(e.key, e.val) // failures absorbed: counted in DiskStats.WriteErrors
		}
		w.disk.SyncDir()
		w.landed()
	}
}

// claim waits for queued entries and claims all of them for one batch,
// moving them from pending to landing. It returns nil once the queue is
// closed and drained.
func (w *writeBehind) claim() []*wbEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) == 0 && !w.closed {
		w.cond.Wait()
	}
	batch := w.queue
	w.queue = nil
	for _, e := range batch {
		delete(w.pending, e.key)
		w.landing[e.key] = e
	}
	return batch
}

// landed retires the claimed batch once every entry of it is on disk.
func (w *writeBehind) landed() {
	w.mu.Lock()
	clear(w.landing)
	w.flushes++
	w.cond.Broadcast() // wake Flush waiters
	w.mu.Unlock()
}

// flush blocks until everything enqueued so far has landed on disk.
func (w *writeBehind) flush() {
	w.mu.Lock()
	for len(w.queue) > 0 || len(w.landing) > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// close drains the queue and stops the flusher. Idempotent.
func (w *writeBehind) close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	<-w.done
}

// WriteBehindStats snapshots the queue for Stats.
type WriteBehindStats struct {
	Enabled bool
	Depth   int    // queued + in-flight entries not yet on disk
	Flushes uint64 // batches landed
	Drops   uint64 // writes rejected by a full queue
}

func (w *writeBehind) stats() WriteBehindStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WriteBehindStats{
		Enabled: true,
		Depth:   len(w.queue) + len(w.landing),
		Flushes: w.flushes,
		Drops:   w.drops,
	}
}
