package emu

// Fast-forward: emulator-only execution that advances architectural state
// without producing stream records. The instructions it consumes are
// excluded from dynamic numbering — after a fast-forward, Step hands out
// records numbered exactly as if the emulator had started at the
// fast-forwarded state, so a timing core attached afterwards sees a stream
// indistinguishable from a fresh program whose initial state happens to be
// the snapshot. That keeps every Seq-keyed pipeline invariant (stream
// rewind/release bounds, branch-wait sequencing) intact with zero plumbing.

import "svwsim/internal/memimage"

// ArchState is a snapshot of the emulator's architectural state: the
// complete functional machine, independent of any timing configuration.
type ArchState struct {
	Regs   [32]uint64
	PC     uint64
	Mem    *memimage.Image
	Halted bool
	// Skipped is how many committed instructions were consumed to reach
	// this state from the program's entry point.
	Skipped uint64
}

// FastForward executes up to n instructions functionally, discarding their
// records, and reports how many actually executed (fewer than n only if the
// program halted or decoding failed). The consumed instructions move to the
// skipped count instead of the sequence counter, preserving the
// numbered-from-the-snapshot stream contract above.
func (e *Emulator) FastForward(n uint64) (uint64, error) {
	start := e.seq
	var (
		d   DynInst
		err error
	)
	for e.seq-start < n && !e.halted {
		if err = e.step(&d); err != nil {
			break
		}
	}
	executed := e.seq - start
	e.seq = start
	e.skipped += executed
	return executed, err
}

// Skipped reports how many instructions FastForward has consumed.
func (e *Emulator) Skipped() uint64 { return e.skipped }

// State snapshots the architectural state. The memory image is cloned, so
// the snapshot stays valid as the emulator keeps executing.
func (e *Emulator) State() ArchState {
	return ArchState{
		Regs:    e.Regs,
		PC:      e.PC,
		Mem:     e.Mem.Clone(),
		Halted:  e.halted,
		Skipped: e.skipped,
	}
}

// Restore adopts a snapshot: registers, PC, a clone of the snapshot's
// memory (the snapshot stays reusable), and the skipped count. The sequence
// counter restarts at zero — records produced after a Restore are numbered
// from the snapshot, per the stream contract. The decode table is
// unaffected; reinstall one with SetDecodeTable if the program changed.
func (e *Emulator) Restore(st ArchState) {
	e.Regs = st.Regs
	e.PC = st.PC
	e.Mem = st.Mem.Clone()
	e.halted = st.Halted
	e.skipped = st.Skipped
	e.seq = 0
}
