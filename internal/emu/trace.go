package emu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"svwsim/internal/isa"
)

// Trace is the recorded committed path of one emulator: an append-only,
// chunked, immutable sequence of compact records, shared by every Stream
// that reads it. The timing core has no wrong-path fetch, so every machine
// configuration run over the same program from the same start point reads
// the same records; recording them once lets a whole ladder of
// configurations replay one emulation.
//
// Whichever reader first needs a record that is not yet recorded extends
// the trace, under the trace's mutex, by a short batch of emulator steps.
// Other readers read the published length without a lock, and a record
// below it never changes. A halt or an emulator error ends the trace: every
// reader sees the halt record, or the error, at the same position.
//
// Records live in fixed-size chunks. A chunk is dropped once no reader can
// need it again: no pin is held (a pin stands for a reader that has yet to
// attach and start from the first record) and every attached reader has
// released past it. A dropped chunk goes back to a process-wide pool that
// every trace takes its new chunks from. A trace with no pin and no reader
// is spent: it drops every chunk.
//
// Pins bound no memory by themselves: a trace pinned for a reader far down
// a queue holds its whole length. So once the traces of the process hold
// heldBudget chunks, a pinned trace that grows further gives its pins up
// and drops behind its readers as if it had none; a reader that attaches
// after its first records are gone is refused (Stream.Reset reports it)
// and records a trace of its own.
type Trace struct {
	n atomic.Uint64 // published records: [0, n) are readable without a lock

	// The first record's PC and the decode table of the recorded program
	// (immutable). A record's PC is its predecessor's NextPC; its
	// instruction comes back from the table, or, for a PC outside it, from
	// its chunk's side array.
	startPC uint64
	decBase uint64
	dec     []isa.Inst

	mu      sync.Mutex
	em      *Emulator
	rec     DynInst // the record being packed
	end     bool    // the emulator halted or failed: n is final
	err     error   // the emulator's error, if it failed
	dir     []*chunk
	lo      uint64 // chunk index of dir[0]; chunks below it are dropped
	readers []*Stream
	pins    int
	refused bool // the pins were given up to bound memory
}

const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	// extendBatch bounds how far past the record a reader asked for an
	// extension runs ahead, so a run that stops early wastes little
	// emulation while readers take the mutex once per batch.
	extendBatch = 32
	// maxPooled is how many dropped chunks the process keeps for reuse
	// (256 KiB): enough for the in-flight windows of a few lone readers.
	maxPooled = 16
)

// chunkPool holds dropped chunks for the next trace that grows. A chunk is
// dropped only once no reader of its trace can read it again, so reusing
// it is safe however long its trace's readers run.
var chunkPool struct {
	sync.Mutex
	free []*chunk
}

// heldBudget is how many chunks the process's traces may hold before a
// growing trace stops holding its start for pinned readers (32 MiB).
var heldBudget = int64(32<<20) / chunkBytes

// packed is one compact trace record: the fields of a DynInst that the
// program text and the record's predecessor cannot recreate. What a and b
// hold depends on the class of the instruction (see pack).
type packed struct {
	a, b uint64
}

type chunk struct {
	recs [chunkLen]packed
	// insts holds the instructions of records whose PC lies outside the
	// decode table; nil until a record needs it.
	insts *[chunkLen]isa.Inst
}

// chunkBytes is the size of one trace chunk, the unit TraceStats counts.
const chunkBytes = int64(chunkLen * 16)

// liveChunks counts the chunks that hold records in any trace of the
// process (pooled ones excluded) and peakChunks its high-water mark; recorded
// counts the records every trace has recorded.
var (
	liveChunks, peakChunks atomic.Int64
	recorded               atomic.Uint64
)

// TraceStats describes the process's traces.
type TraceStats struct {
	// LiveBytes is the size of the chunks that hold records right now, and
	// PeakBytes the most held at once since the last ResetTracePeak.
	LiveBytes, PeakBytes int64
	// Recorded counts the records every trace has recorded: the
	// instructions the process emulated for timing runs.
	Recorded uint64
}

// ReadTraceStats reports the process's trace counters.
func ReadTraceStats() TraceStats {
	return TraceStats{LiveBytes: liveChunks.Load() * chunkBytes,
		PeakBytes: peakChunks.Load() * chunkBytes, Recorded: recorded.Load()}
}

// ResetTracePeak restarts the PeakBytes high-water mark from the live size.
func ResetTracePeak() { peakChunks.Store(liveChunks.Load()) }

func chunkHeld() {
	n := liveChunks.Add(1)
	for {
		p := peakChunks.Load()
		if n <= p || peakChunks.CompareAndSwap(p, n) {
			return
		}
	}
}

// NewTrace returns an empty trace that records e's committed path. e must
// not have executed a recorded instruction yet (its next record is Seq 0),
// and its decode table, if any, must already be installed. The trace owns
// e from here on.
func NewTrace(e *Emulator) *Trace {
	t := new(Trace)
	t.Reset(e)
	return t
}

// Reset restarts the trace over a new emulator, keeping its chunks for
// reuse. It panics if a reader is still attached.
func (t *Trace) Reset(e *Emulator) {
	if e.seq != 0 {
		panic(fmt.Sprintf("emu: trace over an emulator already at record %d", e.seq))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.readers) > 0 {
		panic("emu: reset of a trace with attached readers")
	}
	t.dropTo(t.lo + uint64(len(t.dir)))
	t.n.Store(0)
	t.lo = 0
	t.em, t.end, t.err = e, false, nil
	t.startPC, t.decBase, t.dec = e.PC, e.decBase, e.decTable
	t.pins, t.refused = 0, false
}

// Pin holds the trace's first record for n readers that will attach later.
// Each must be matched by one Unpin once that reader has attached (or will
// never attach).
func (t *Trace) Pin(n int) {
	t.mu.Lock()
	t.pins += n
	t.mu.Unlock()
}

// Unpin drops one pin taken by Pin.
func (t *Trace) Unpin() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins <= 0 {
		panic("emu: trace unpinned more often than pinned")
	}
	t.pins--
	t.collect()
}

// extend records until record seq exists or the trace ends, reporting
// whether it exists; when the trace has ended before seq, err is the
// emulator's error (nil after a halt).
func (t *Trace) extend(seq uint64) (ok bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n.Load()
	if seq < n {
		return true, nil
	}
	limit := seq + extendBatch
	for n < limit && !t.end {
		if n&chunkMask == 0 && n>>chunkShift == t.lo+uint64(len(t.dir)) {
			if t.pins > 0 && !t.refused && liveChunks.Load() >= heldBudget {
				t.refused = true
				t.collect()
			}
			t.dir = append(t.dir, t.newChunk())
		}
		ck := t.dir[n>>chunkShift-t.lo]
		d := &t.rec
		if err := t.em.step(d); err != nil {
			t.end, t.err, t.em = true, err, nil
			break
		}
		if d.Seq != n {
			panic(fmt.Sprintf("emu: trace record %d came back as Seq %d", n, d.Seq))
		}
		t.pack(ck, n&chunkMask, d)
		n++
		if d.Inst.Op == isa.OpHalt {
			t.end, t.em = true, nil
		}
	}
	recorded.Add(n - t.n.Load())
	t.n.Store(n)
	if seq < n {
		return true, nil
	}
	return false, t.err
}

// newChunk returns a pooled chunk or allocates one; the caller adds it to
// the directory.
func (t *Trace) newChunk() *chunk {
	chunkHeld()
	chunkPool.Lock()
	defer chunkPool.Unlock()
	if k := len(chunkPool.free); k > 0 {
		ck := chunkPool.free[k-1]
		chunkPool.free[k-1] = nil
		chunkPool.free = chunkPool.free[:k-1]
		return ck
	}
	return new(chunk)
}

// inTable reports whether pc's instruction comes from the decode table.
func (t *Trace) inTable(pc uint64) bool {
	return (pc-t.decBase)>>2 < uint64(len(t.dec)) && pc&3 == 0
}

// pack stores d as the record at index i of ck:
//
//   - loads: a = EffAddr, b = LoadVal (which is also Result);
//   - stores: a = EffAddr, b = StoreVal;
//   - branches: a = NextPC, and b = Taken for a conditional branch or
//     Result for an unconditional one (which is always taken);
//   - everything else: a = Result.
//
// MemBytes follows from the instruction, NextPC is PC+4 outside branches
// (the halt's is its own PC), and every other field is zero.
func (t *Trace) pack(ck *chunk, i uint64, d *DynInst) {
	r := &ck.recs[i]
	switch d.Inst.Class() {
	case isa.ClassLoad:
		r.a, r.b = d.EffAddr, d.LoadVal
	case isa.ClassStore:
		r.a, r.b = d.EffAddr, d.StoreVal
	case isa.ClassBranch:
		r.a, r.b = d.NextPC, d.Result
		if d.Inst.IsCondBranch() {
			r.b = b2u(d.Taken)
		}
	default:
		r.a, r.b = d.Result, 0
	}
	if !t.inTable(d.PC) {
		if ck.insts == nil {
			ck.insts = new([chunkLen]isa.Inst)
		}
		ck.insts[i] = d.Inst
	}
}

// unpack expands record seq, which lies in ck and has PC pc, into d, field
// by field.
func (t *Trace) unpack(ck *chunk, seq, pc uint64, d *DynInst) {
	i := seq & chunkMask
	r := &ck.recs[i]
	var inst isa.Inst
	if t.inTable(pc) {
		inst = t.dec[(pc-t.decBase)>>2]
	} else {
		inst = ck.insts[i]
	}
	d.Seq, d.PC, d.Inst = seq, pc, inst
	d.NextPC, d.Taken = pc+4, false
	d.EffAddr, d.MemBytes, d.StoreVal, d.LoadVal, d.Result = 0, 0, 0, 0, 0
	switch inst.Class() {
	case isa.ClassLoad:
		d.EffAddr, d.MemBytes, d.LoadVal, d.Result = r.a, inst.MemBytes(), r.b, r.b
	case isa.ClassStore:
		d.EffAddr, d.MemBytes, d.StoreVal = r.a, inst.MemBytes(), r.b
	case isa.ClassBranch:
		d.NextPC = r.a
		if inst.IsCondBranch() {
			d.Taken = r.b != 0
		} else {
			d.Taken, d.Result = true, r.b
		}
	case isa.ClassHalt:
		d.NextPC = pc
	default:
		d.Result = r.a
	}
}

// chunk returns the chunk holding records [ci<<chunkShift, ...). The
// caller is an attached reader that has not released past it, so it has
// not been dropped.
func (t *Trace) chunk(ci uint64) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ci < t.lo || ci-t.lo >= uint64(len(t.dir)) {
		panic(fmt.Sprintf("emu: trace chunk %d outside the held chunks [%d,%d)",
			ci, t.lo, t.lo+uint64(len(t.dir))))
	}
	return t.dir[ci-t.lo]
}

// attach registers s as a reader starting at the first record, and
// reports whether it could: false once the first records were dropped.
func (t *Trace) attach(s *Stream) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lo != 0 {
		return false
	}
	t.readers = append(t.readers, s)
	return true
}

// detach unregisters s and drops what no remaining reader needs.
func (t *Trace) detach(s *Stream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range t.readers {
		if r == s {
			last := len(t.readers) - 1
			t.readers[i] = t.readers[last]
			t.readers[last] = nil
			t.readers = t.readers[:last]
			break
		}
	}
	t.collect()
}

// advance records that s needs nothing below chunk ci any more.
func (t *Trace) advance(s *Stream, ci uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.held = ci
	t.collect()
}

// collect drops the chunks behind the slowest reader, or every chunk of a
// spent trace. Nothing is dropped while a pin is held, unless the pins were
// given up. t.mu is held.
func (t *Trace) collect() {
	if t.pins > 0 && !t.refused {
		return
	}
	keep := t.lo + uint64(len(t.dir))
	for _, r := range t.readers {
		keep = min(keep, r.held)
	}
	t.dropTo(keep)
}

// dropTo drops every chunk below index keep. t.mu is held.
func (t *Trace) dropTo(keep uint64) {
	if keep <= t.lo {
		return
	}
	k := int(keep - t.lo)
	liveChunks.Add(-int64(k))
	chunkPool.Lock()
	for _, ck := range t.dir[:k] {
		if len(chunkPool.free) < maxPooled {
			chunkPool.free = append(chunkPool.free, ck)
		}
	}
	chunkPool.Unlock()
	n := copy(t.dir, t.dir[k:])
	clear(t.dir[n:])
	t.dir = t.dir[:n]
	t.lo = keep
}
