package emu

import (
	"errors"
	"sync"
	"testing"

	"svwsim/internal/isa"
	"svwsim/internal/memimage"
	"svwsim/internal/prog"
	"svwsim/internal/workload"
)

// reference returns the first n records a fresh emulator of p steps
// through (fewer if it halts).
func reference(t *testing.T, p *prog.Program, n int) []DynInst {
	t.Helper()
	e := New(p.NewImage(), p.Entry)
	var out []DynInst
	for len(out) < n {
		d, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
		if d.Inst.Op == isa.OpHalt {
			break
		}
	}
	return out
}

// tracedEmulator returns p's emulator, with its decode table installed when
// table is set.
func tracedEmulator(p *prog.Program, table bool) *Emulator {
	e := New(p.NewImage(), p.Entry)
	if table {
		e.SetDecodeTable(p.Base, p.Decoded())
	}
	return e
}

// TestTraceRecordsMatchEmulator: a record read back from a trace is the
// record the emulator produced, field for field, on every kernel, whether
// its instruction comes from the decode table or from the chunk.
func TestTraceRecordsMatchEmulator(t *testing.T) {
	const n = 3*chunkLen + 77
	for _, name := range workload.Names() {
		p := workload.Cached(name)
		want := reference(t, p, n)
		for _, table := range []bool{true, false} {
			s := NewStream(tracedEmulator(p, table))
			for i := range want {
				d := s.Next()
				if d == nil || *d != want[i] {
					t.Fatalf("%s (table %v) record %d:\n got %+v\nwant %+v", name, table, i, d, want[i])
				}
				s.Release(d.Seq)
			}
		}
	}
}

// longCount is a loop of 3 instructions run 5000 times.
func longCount() *prog.Program {
	b := prog.NewBuilder("count")
	b.MovImm(1, 5000)
	b.Label("top")
	b.Addi(2, 2, 1)
	b.Addi(1, 1, -1)
	b.Bne(1, "top")
	b.Halt()
	return b.Build()
}

// TestTraceRewindAndReleaseAcrossChunks: a reader that releases in steps
// and rewinds across a chunk boundary gets the same records back at the
// same addresses, and the trace drops each chunk once it is released past.
func TestTraceRewindAndReleaseAcrossChunks(t *testing.T) {
	p := longCount()
	want := reference(t, p, 4*chunkLen)
	s := NewStream(tracedEmulator(p, true))
	tr := s.t
	kept := map[uint64]*DynInst{}
	for i := 0; i < chunkLen+50; i++ {
		d := s.Next()
		kept[d.Seq] = d
	}
	// Release into chunk 1, then rewind to before the boundary.
	s.Release(chunkLen - 20)
	if tr.lo != 0 {
		t.Fatalf("trace dropped chunk 0 while records in it are unreleased (lo=%d)", tr.lo)
	}
	s.Rewind(chunkLen - 10)
	for seq := uint64(chunkLen - 10); seq < chunkLen+50; seq++ {
		d := s.Next()
		if d != kept[seq] || *d != want[seq] {
			t.Fatalf("rewound record %d: got %+v at %p, want %+v at %p", seq, d, d, want[seq], kept[seq])
		}
	}
	s.Release(chunkLen + 1)
	if tr.lo != 1 {
		t.Fatalf("after release past chunk 0, first held chunk = %d, want 1", tr.lo)
	}
	for i := chunkLen + 50; i < len(want); i++ {
		d := s.Next()
		if *d != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, d, want[i])
		}
		s.Release(d.Seq)
	}
	if tr.lo != 3 {
		t.Fatalf("after release into chunk 3, first held chunk = %d, want 3", tr.lo)
	}
	defer func() {
		if recover() == nil {
			t.Error("rewind behind the release point did not panic")
		}
	}()
	s.Rewind(chunkLen)
}

// TestTraceHaltReachesEveryReader: each reader of a halting program sees
// the halt record at the same position, then nothing, and a rewind past it
// re-delivers the records before it.
func TestTraceHaltReachesEveryReader(t *testing.T) {
	b := prog.NewBuilder("halt")
	for i := 0; i < 300; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	p := b.Build()
	tr := NewTrace(tracedEmulator(p, true))
	tr.Pin(2)
	for r := 0; r < 2; r++ {
		s := new(Stream)
		s.Reset(tr)
		tr.Unpin()
		var last *DynInst
		for d := s.Next(); d != nil; d = s.Next() {
			last = d
		}
		if last == nil || last.Seq != 300 || last.Inst.Op != isa.OpHalt {
			t.Fatalf("reader %d: last record %+v, want the halt at 300", r, last)
		}
		if s.Err() != nil || s.Next() != nil {
			t.Fatalf("reader %d: err %v after the halt", r, s.Err())
		}
		s.Rewind(299)
		if d := s.Next(); d == nil || d.Seq != 299 {
			t.Fatalf("reader %d: rewind before the halt gave %+v", r, d)
		}
		s.Detach()
	}
}

// badOpcodeProgram is 200 addis followed by an undefined instruction word.
func badOpcodeProgram() *Emulator {
	m := memimage.New()
	for i := 0; i < 200; i++ {
		m.Write32(uint64(4*i), isa.MustEncode(isa.Inst{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1}))
	}
	m.Write32(800, 0xFFFFFFFF)
	return New(m, 0)
}

// TestTraceErrorReachesEveryReader: an emulator error ends the trace at
// its position, and every reader, whichever recorded it, reads the same
// records and then the same error.
func TestTraceErrorReachesEveryReader(t *testing.T) {
	tr := NewTrace(badOpcodeProgram())
	tr.Pin(2)
	var errs []error
	for r := 0; r < 2; r++ {
		s := new(Stream)
		s.Reset(tr)
		tr.Unpin()
		n := 0
		for s.Next() != nil {
			n++
		}
		if n != 200 {
			t.Fatalf("reader %d read %d records before the error, want 200", r, n)
		}
		var bad *ErrBadOpcode
		if !errors.As(s.Err(), &bad) || bad.PC != 800 {
			t.Fatalf("reader %d: err = %v, want the bad opcode at 800", r, s.Err())
		}
		errs = append(errs, s.Err())
		s.Rewind(0) // the error is sticky, as before
		if s.Next() != nil {
			t.Fatalf("reader %d: a record after the error", r)
		}
	}
	if errs[0] != errs[1] {
		t.Errorf("readers saw different errors: %v, %v", errs[0], errs[1])
	}
}

// TestTraceConcurrentReaders: readers on their own goroutines extend one
// trace concurrently, each with its own rewind and release pattern, and all
// read the emulator's records; once every reader has detached the trace
// holds nothing.
func TestTraceConcurrentReaders(t *testing.T) {
	p := workload.Cached("gcc")
	const n = 6 * chunkLen
	want := reference(t, p, n)
	tr := NewTrace(tracedEmulator(p, true))
	const readers = 4
	tr.Pin(readers)
	live0 := ReadTraceStats().LiveBytes
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := new(Stream)
			s.Reset(tr)
			tr.Unpin()
			defer s.Detach()
			window := uint64(40 + 60*r)
			flushAt := uint64(100 + r)
			for seq := uint64(0); seq < n; {
				d := s.Next()
				if d == nil || *d != want[seq] {
					errs <- "record mismatch"
					return
				}
				seq++
				if seq == flushAt {
					flushAt += uint64(97 + r)
					seq -= 30 // a flush: refetch the last 30
					s.Rewind(seq)
				}
				if seq > window {
					s.Release(seq - window)
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if live := ReadTraceStats().LiveBytes; live != live0 || len(tr.dir) != 0 {
		t.Errorf("a spent trace still holds %d chunks (%d bytes counted live, %d before)",
			len(tr.dir), live, live0)
	}
}

// TestTraceHoldsItsStartWhilePinned: nothing is dropped while a reader is
// still to attach; after its pin goes, the chunks behind the slowest
// reader are dropped.
func TestTraceHoldsItsStartWhilePinned(t *testing.T) {
	tr := NewTrace(tracedEmulator(longCount(), true))
	tr.Pin(2)
	a := new(Stream)
	a.Reset(tr)
	tr.Unpin()
	for i := 0; i < 3*chunkLen; i++ {
		a.Next()
		a.Release(uint64(i))
	}
	if tr.lo != 0 {
		t.Fatalf("dropped up to chunk %d while a reader is pinned", tr.lo)
	}
	b := new(Stream)
	b.Reset(tr)
	tr.Unpin()
	if tr.lo != 0 {
		t.Fatalf("dropped up to chunk %d under a reader at record 0", tr.lo)
	}
	for i := 0; i < chunkLen+5; i++ {
		b.Next()
		b.Release(uint64(i))
	}
	if tr.lo != 1 {
		t.Fatalf("first held chunk = %d, want 1 (the slower reader is in chunk 1)", tr.lo)
	}
	b.Detach()
	if tr.lo != 2 {
		t.Fatalf("first held chunk = %d after the slower reader left, want 2", tr.lo)
	}
}

// TestTraceGivesUpPinsOverBudget: once the process's traces hold the
// budget, a pinned trace that grows drops behind its reader anyway, and a
// reader that comes later is refused instead of reading a dropped chunk.
func TestTraceGivesUpPinsOverBudget(t *testing.T) {
	defer func(b int64) { heldBudget = b }(heldBudget)
	heldBudget = liveChunks.Load() + 2
	tr := NewTrace(tracedEmulator(longCount(), true))
	tr.Pin(2)
	a := new(Stream)
	if !a.Reset(tr) {
		t.Fatal("first reader refused")
	}
	tr.Unpin()
	for i := 0; i < 4*chunkLen; i++ {
		a.Next()
		a.Release(uint64(i))
	}
	if tr.lo == 0 {
		t.Fatal("a trace over budget kept its first chunk for a pinned reader")
	}
	b := new(Stream)
	if b.Reset(tr) {
		t.Fatal("a reader attached to a trace whose first records were dropped")
	}
	tr.Unpin()
	a.Detach()
}
