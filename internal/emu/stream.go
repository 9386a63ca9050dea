package emu

import "fmt"

// Stream is one reader's rewindable cursor over a Trace: the dynamic
// instruction source the timing core fetches from.
//
// The timing core has no wrong-path fetch: every fetched instruction is a
// committed-path record. Flush recovery therefore reduces to rewinding the
// cursor to the squash point and re-delivering the same records. The
// cursor expands each compact trace record once, into a ring of DynInsts
// it owns, and keeps every expanded record from the oldest unreleased one
// onward: Rewind only moves the read position, and Release tells the trace
// which records this reader no longer needs.
//
// Records are handed out as stable pointers: a consumer may hold one for
// as long as it has not released it. The ring grows when the window of
// unreleased records outgrows it, moving no record, so in steady state
// (the window has reached its high-water mark) Next allocates nothing.
type Stream struct {
	t *Trace

	ring []*DynInst // expanded records, record seq at ring[seq&mask]
	mask uint64
	base uint64 // Seq of the oldest record not released
	pos  uint64 // Seq of the next record Next returns
	hi   uint64 // one past the newest expanded record
	pc   uint64 // PC of record hi
	err  error  // sticky emulator error

	held uint64 // chunk index this reader still needs from; written under t.mu
	ci   uint64 // index of ck, the chunk the last expansion read
	ck   *chunk
}

// NewStream returns a cursor over a new trace of e.
func NewStream(e *Emulator) *Stream {
	s := new(Stream)
	s.Reset(NewTrace(e))
	return s
}

// Reset detaches the cursor from its trace and attaches it to the start of
// t, keeping the ring for reuse. Callers must no longer hold records of the
// previous trace. It reports false, leaving the cursor detached, when t
// has already dropped its first records (see Trace).
func (s *Stream) Reset(t *Trace) bool {
	s.Detach()
	s.base, s.pos, s.hi, s.held = 0, 0, 0, 0
	s.err, s.ck = nil, nil
	if !t.attach(s) {
		return false
	}
	s.t, s.pc = t, t.startPC
	return true
}

// Detach ends the cursor's reading of its trace, so the trace can drop the
// records it held for it. The records already expanded stay readable until
// the next Reset; Next must not be called again before it. Detaching a
// detached cursor does nothing.
func (s *Stream) Detach() {
	if s.t != nil {
		s.t.detach(s)
		s.t, s.ck = nil, nil
	}
}

// Err returns the sticky emulator error, if any.
func (s *Stream) Err() error { return s.err }

// Next returns the next dynamic instruction record: re-delivered after a
// Rewind, expanded from the trace otherwise, the trace recording it first
// if no reader has needed it yet. Returns nil once the record at the
// current position lies past the halt, or on emulator error.
func (s *Stream) Next() *DynInst {
	if s.err != nil {
		return nil
	}
	seq := s.pos
	if seq < s.hi {
		s.pos++
		return s.ring[seq&s.mask]
	}
	if seq >= s.t.n.Load() {
		if ok, err := s.t.extend(seq); !ok {
			s.err = err
			return nil
		}
	}
	if seq-s.base >= uint64(len(s.ring)) {
		s.grow()
	}
	if ci := seq >> chunkShift; s.ck == nil || s.ci != ci {
		s.ci, s.ck = ci, s.t.chunk(ci)
	}
	d := s.ring[seq&s.mask]
	s.t.unpack(s.ck, seq, s.pc, d)
	s.hi, s.pos, s.pc = seq+1, seq+1, d.NextPC
	return d
}

// grow doubles the ring, keeping every unreleased record where it is in
// memory and giving the new slots fresh records.
func (s *Stream) grow() {
	n := max(2*len(s.ring), 64)
	ring := make([]*DynInst, n)
	mask := uint64(n - 1)
	for seq := s.base; seq < s.hi; seq++ {
		ring[seq&mask] = s.ring[seq&s.mask]
	}
	fresh := make([]DynInst, n-int(s.hi-s.base))
	for i := range ring {
		if ring[i] == nil {
			ring[i] = &fresh[0]
			fresh = fresh[1:]
		}
	}
	s.ring, s.mask = ring, mask
}

// Rewind moves the cursor so the next Next call returns the record with
// the given Seq. The record must not have been released.
func (s *Stream) Rewind(seq uint64) {
	if seq < s.base || seq > s.pos {
		panic(fmt.Sprintf("emu: rewind to %d outside buffered window [%d,%d]",
			seq, s.base, s.pos))
	}
	s.pos = seq
}

// Release drops records with Seq < seq: they can no longer be rewound to,
// their ring slots are reused by later records, and the trace may drop the
// chunks that held them once every other reader has passed them too. Call
// with the Seq of the oldest uncommitted instruction.
func (s *Stream) Release(seq uint64) {
	if seq <= s.base {
		return
	}
	if seq > s.pos {
		panic(fmt.Sprintf("emu: release past read position (%d > %d)", seq, s.pos))
	}
	s.base = seq
	if ci := seq >> chunkShift; ci > s.held && s.t != nil {
		s.t.advance(s, ci)
	}
}

// Buffered reports how many expanded records are retained (diagnostics).
func (s *Stream) Buffered() int { return int(s.hi - s.base) }
