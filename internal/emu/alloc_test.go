package emu

import (
	"testing"

	"svwsim/internal/isa"
	"svwsim/internal/memimage"
	"svwsim/internal/raceflag"
)

// loopImage assembles a two-instruction infinite loop (addi; br -2) at pc 0
// directly into an image, avoiding an import cycle with the builder.
func loopImage() *memimage.Image {
	m := memimage.New()
	m.Write32(0, isa.MustEncode(isa.Inst{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1}))
	m.Write32(4, isa.MustEncode(isa.Inst{Op: isa.OpBr, Imm: -2}))
	return m
}

// TestStreamSteadyStateZeroAlloc: with a bounded in-flight window (the ROB
// pattern: fetch a batch, commit a batch, release), Next allocates nothing
// once the window's high-water mark is reached.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s := NewStream(New(loopImage(), 0))
	var pos uint64
	// Reach the high-water mark.
	for i := 0; i < 256; i++ {
		s.Next()
		pos++
	}
	s.Release(pos - 8)
	if allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 16; i++ {
			s.Next()
			pos++
		}
		s.Release(pos - 8)
	}); allocs != 0 {
		t.Errorf("stream: %v allocs per steady-state window, want 0", allocs)
	}
}

// TestStreamResetRestartsAtFirstRecord: Reset attaches the cursor to the
// start of another trace, keeping its record ring (the engine's per-worker
// simulator reuse path).
func TestStreamResetRestartsAtFirstRecord(t *testing.T) {
	s := NewStream(New(loopImage(), 0))
	for i := 0; i < 100; i++ {
		s.Next()
	}
	ring := len(s.ring)
	s.Reset(NewTrace(New(loopImage(), 0)))
	if s.Buffered() != 0 {
		t.Errorf("buffered = %d after Reset, want 0", s.Buffered())
	}
	if d := s.Next(); d == nil || d.Seq != 0 {
		t.Fatalf("first record after Reset = %+v, want Seq 0", d)
	}
	if len(s.ring) != ring {
		t.Errorf("ring of %d records rebuilt as %d on Reset", ring, len(s.ring))
	}
}
