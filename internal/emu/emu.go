// Package emu is the functional emulator. It executes ISA programs over a
// memory image and produces the dynamic instruction record stream the timing
// core consumes: a Trace records one emulator's committed path once, and
// every timing run over that path reads it through its own Stream.
//
// The emulator is the oracle: every record carries the architecturally
// correct result, effective address, store data, load value, and branch
// outcome. The timing core replays this stream, computing its own (possibly
// stale) load values against speculative machine state; a mismatch between a
// timing-observed value and the oracle value is precisely a memory-ordering
// (or false-elimination) violation.
package emu

import (
	"fmt"

	"svwsim/internal/isa"
	"svwsim/internal/memimage"
)

// DynInst is one dynamic instruction record of the oracle stream.
type DynInst struct {
	Seq  uint64 // dynamic instruction number, starting at 0
	PC   uint64
	Inst isa.Inst

	NextPC uint64 // architecturally correct next PC
	Taken  bool   // for branches: whether control transferred

	EffAddr  uint64 // loads/stores: effective address
	MemBytes int    // loads/stores: access width
	StoreVal uint64 // stores: value written (low MemBytes significant)
	LoadVal  uint64 // loads: architecturally correct (extended) value

	Result uint64 // value written to Dest, if any
}

// String renders a compact trace line, useful in test failures.
func (d *DynInst) String() string {
	s := fmt.Sprintf("#%d pc=%#x %v", d.Seq, d.PC, d.Inst)
	if d.Inst.IsMem() {
		s += fmt.Sprintf(" [addr=%#x]", d.EffAddr)
	}
	return s
}

// Emulator executes a program one instruction at a time.
type Emulator struct {
	Mem  *memimage.Image
	Regs [32]uint64
	PC   uint64

	seq     uint64
	skipped uint64 // instructions consumed by FastForward, excluded from seq
	halted  bool

	// Decoded-instruction cache: a contiguous table covering
	// [decBase, decBase+4*len(decTable)). PCs inside the window skip the
	// per-step memory read and decode entirely; PCs outside fall back to
	// the decode-from-memory path. The table is precomputed from the
	// program's code words (prog.Program.Decoded), so it is byte-for-byte
	// the decode the fallback path would produce. Installing a table
	// asserts the code region is immutable: a program that stored to its
	// own code would diverge from table contents (no kernel does; the ISA
	// has no icache-flush primitive to make self-modification meaningful).
	decBase  uint64
	decTable []isa.Inst
}

// New returns an emulator executing from entry over mem. The caller retains
// ownership of mem; the emulator mutates it as stores execute.
func New(mem *memimage.Image, entry uint64) *Emulator {
	return &Emulator{Mem: mem, PC: entry}
}

// SetDecodeTable installs a decoded-instruction cache for the code window
// starting at base. insts[i] must be the decode of the word at base+4i.
func (e *Emulator) SetDecodeTable(base uint64, insts []isa.Inst) {
	e.decBase, e.decTable = base, insts
}

// decode returns the instruction at pc, via the decode table when pc falls
// inside the installed window.
func (e *Emulator) decode(pc uint64) isa.Inst {
	if idx := (pc - e.decBase) >> 2; idx < uint64(len(e.decTable)) && pc&3 == 0 {
		return e.decTable[idx]
	}
	return isa.Decode(e.Mem.Read32(pc))
}

// Halted reports whether a halt instruction has executed.
func (e *Emulator) Halted() bool { return e.halted }

// InstCount reports how many instructions have executed.
func (e *Emulator) InstCount() uint64 { return e.seq }

// ErrBadOpcode is returned when fetch decodes an undefined opcode, which
// indicates a builder or encoding bug rather than a program condition.
type ErrBadOpcode struct {
	PC   uint64
	Word uint32
}

func (e *ErrBadOpcode) Error() string {
	return fmt.Sprintf("emu: undefined opcode word %#x at pc %#x", e.Word, e.PC)
}

func (e *Emulator) reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return e.Regs[r]
}

func (e *Emulator) setReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		e.Regs[r] = v
	}
}

// Step executes one instruction and returns its record. After halt it keeps
// returning the halt record without advancing, so callers can over-fetch.
func (e *Emulator) Step() (DynInst, error) {
	var d DynInst
	err := e.step(&d)
	return d, err
}

// step is Step writing the record into d, every field of which it sets.
func (e *Emulator) step(d *DynInst) error {
	inst := e.decode(e.PC)
	*d = DynInst{}
	d.Seq, d.PC, d.Inst, d.NextPC = e.seq, e.PC, inst, e.PC+4

	switch inst.Op {
	case isa.OpNop:
	case isa.OpHalt:
		e.halted = true
		d.NextPC = e.PC
		return nil

	case isa.OpAdd:
		d.Result = e.reg(inst.Ra) + e.reg(inst.Rb)
	case isa.OpSub:
		d.Result = e.reg(inst.Ra) - e.reg(inst.Rb)
	case isa.OpMul:
		d.Result = e.reg(inst.Ra) * e.reg(inst.Rb)
	case isa.OpAnd:
		d.Result = e.reg(inst.Ra) & e.reg(inst.Rb)
	case isa.OpOr:
		d.Result = e.reg(inst.Ra) | e.reg(inst.Rb)
	case isa.OpXor:
		d.Result = e.reg(inst.Ra) ^ e.reg(inst.Rb)
	case isa.OpSll:
		d.Result = e.reg(inst.Ra) << (e.reg(inst.Rb) & 63)
	case isa.OpSrl:
		d.Result = e.reg(inst.Ra) >> (e.reg(inst.Rb) & 63)
	case isa.OpSra:
		d.Result = uint64(int64(e.reg(inst.Ra)) >> (e.reg(inst.Rb) & 63))
	case isa.OpCmpEq:
		d.Result = b2u(e.reg(inst.Ra) == e.reg(inst.Rb))
	case isa.OpCmpLt:
		d.Result = b2u(int64(e.reg(inst.Ra)) < int64(e.reg(inst.Rb)))
	case isa.OpCmpLe:
		d.Result = b2u(int64(e.reg(inst.Ra)) <= int64(e.reg(inst.Rb)))
	case isa.OpCmpUlt:
		d.Result = b2u(e.reg(inst.Ra) < e.reg(inst.Rb))

	case isa.OpAddi:
		d.Result = e.reg(inst.Ra) + uint64(inst.Imm)
	case isa.OpAndi:
		d.Result = e.reg(inst.Ra) & uint64(inst.Imm)
	case isa.OpOri:
		d.Result = e.reg(inst.Ra) | uint64(inst.Imm)
	case isa.OpXori:
		d.Result = e.reg(inst.Ra) ^ uint64(inst.Imm)
	case isa.OpSlli:
		d.Result = e.reg(inst.Ra) << (uint64(inst.Imm) & 63)
	case isa.OpSrli:
		d.Result = e.reg(inst.Ra) >> (uint64(inst.Imm) & 63)
	case isa.OpCmpEqi:
		d.Result = b2u(e.reg(inst.Ra) == uint64(inst.Imm))
	case isa.OpCmpLti:
		d.Result = b2u(int64(e.reg(inst.Ra)) < inst.Imm)
	case isa.OpLda:
		d.Result = e.reg(inst.Ra) + uint64(inst.Imm)
	case isa.OpLdah:
		d.Result = e.reg(inst.Ra) + uint64(inst.Imm<<16)

	case isa.OpLdb, isa.OpLdw, isa.OpLdl, isa.OpLdq:
		d.EffAddr = e.reg(inst.Ra) + uint64(inst.Imm)
		d.MemBytes = inst.MemBytes()
		raw := e.Mem.Read(d.EffAddr, d.MemBytes)
		d.LoadVal = ExtendLoad(inst, raw)
		d.Result = d.LoadVal

	case isa.OpStb, isa.OpStw, isa.OpStl, isa.OpStq:
		d.EffAddr = e.reg(inst.Ra) + uint64(inst.Imm)
		d.MemBytes = inst.MemBytes()
		d.StoreVal = e.reg(inst.Rb)
		e.Mem.Write(d.EffAddr, d.MemBytes, d.StoreVal)

	case isa.OpBeq:
		d.Taken = e.reg(inst.Ra) == 0
	case isa.OpBne:
		d.Taken = e.reg(inst.Ra) != 0
	case isa.OpBlt:
		d.Taken = int64(e.reg(inst.Ra)) < 0
	case isa.OpBge:
		d.Taken = int64(e.reg(inst.Ra)) >= 0
	case isa.OpBr:
		d.Taken = true
	case isa.OpBsr:
		d.Taken = true
		d.Result = e.PC + 4
	case isa.OpJmp:
		d.Taken = true
		d.Result = e.PC + 4
		d.NextPC = e.reg(inst.Ra)

	default:
		return &ErrBadOpcode{PC: e.PC, Word: e.Mem.Read32(e.PC)}
	}

	if inst.IsCondBranch() || inst.IsUncondDirect() {
		if d.Taken {
			d.NextPC = inst.BranchTarget(e.PC)
		}
	}
	e.setReg(inst.Dest(), d.Result)
	e.PC = d.NextPC
	e.seq++
	return nil
}

// ExtendLoad applies the load's extension rule to raw bytes read from memory.
func ExtendLoad(inst isa.Inst, raw uint64) uint64 {
	if inst.SignExtends() {
		return uint64(int64(int32(uint32(raw))))
	}
	return raw
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
