// Package isa defines the Alpha-like 64-bit RISC instruction set executed by
// the functional emulator and modeled by the timing core.
//
// The ISA is deliberately small but complete enough to express the synthetic
// SPEC2000-integer-profile kernels used in the SVW reproduction: 32 integer
// registers (R31 hardwired to zero), 1/2/4/8-byte loads and stores,
// single-register compare-and-branch (Alpha style), jumps with link, and a
// register-indirect jump for pointer chasing and returns. Instructions encode
// to fixed 32-bit words so programs live in simulated memory and the fetch
// path of the timing model exercises a real instruction cache.
package isa

import "fmt"

// Reg names an architectural integer register, 0..31. R31 reads as zero and
// ignores writes, like the Alpha.
type Reg uint8

// Architectural register file size and the hardwired zero register.
const (
	NumRegs Reg = 32
	Zero    Reg = 31
)

func (r Reg) String() string {
	if r == Zero {
		return "rz"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. The encoding reserves 6 bits, so keep Op < 64.
const (
	// OpNop does nothing. Encoded explicitly so the builder can pad.
	OpNop Op = iota

	// Register-register ALU operations: rd = ra OP rb.
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpCmpEq  // rd = (ra == rb) ? 1 : 0
	OpCmpLt  // signed
	OpCmpLe  // signed
	OpCmpUlt // unsigned

	// Register-immediate ALU operations: rd = ra OP signext(imm16).
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpCmpEqi
	OpCmpLti

	// OpLda computes rd = ra + signext(imm16) (address arithmetic, also the
	// canonical "load immediate" with ra == Zero). OpLdah shifts the
	// immediate left 16 bits first, so a two-instruction sequence can build
	// any 32-bit constant.
	OpLda
	OpLdah

	// Loads: rd = mem[ra + signext(imm16)]. Byte and word loads zero-extend;
	// OpLdl sign-extends 32 bits; OpLdq loads all 64.
	OpLdb
	OpLdw
	OpLdl
	OpLdq

	// Stores: mem[ra + signext(imm16)] = low bytes of rb.
	OpStb
	OpStw
	OpStl
	OpStq

	// Conditional branches compare ra against zero and, if the condition
	// holds, transfer to PC + 4 + 4*disp21 (disp in instruction words).
	OpBeq
	OpBne
	OpBlt
	OpBge

	// OpBr branches unconditionally (PC-relative). OpBsr additionally links:
	// rd = PC + 4. OpJmp jumps to (ra) and links rd = PC + 4; with rd == Zero
	// it is a plain indirect jump, and by convention a return.
	OpBr
	OpBsr
	OpJmp

	// OpHalt stops the emulator. The timing model drains and finishes.
	OpHalt

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpAnd: "and",
	OpOr: "or", OpXor: "xor", OpSll: "sll", OpSrl: "srl", OpSra: "sra",
	OpCmpEq: "cmpeq", OpCmpLt: "cmplt", OpCmpLe: "cmple", OpCmpUlt: "cmpult",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpCmpEqi: "cmpeqi", OpCmpLti: "cmplti",
	OpLda: "lda", OpLdah: "ldah",
	OpLdb: "ldb", OpLdw: "ldw", OpLdl: "ldl", OpLdq: "ldq",
	OpStb: "stb", OpStw: "stw", OpStl: "stl", OpStq: "stq",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBr: "br", OpBsr: "bsr", OpJmp: "jmp", OpHalt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class partitions opcodes by the functional unit / scheduler port they use.
type Class uint8

// Instruction classes used by the issue-port model.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassLoad
	ClassStore
	ClassBranch // conditional branches, unconditional branches, jumps
	ClassHalt
)

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "alu"
	case ClassIntMul:
		return "mul"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassHalt:
		return "halt"
	}
	return "?"
}

// Inst is a decoded instruction. Field meaning depends on the opcode family:
//
//   - RR ALU:     Rd = Ra op Rb
//   - RI ALU/Lda: Rd = Ra op Imm
//   - Load:       Rd = mem[Ra + Imm]
//   - Store:      mem[Ra + Imm] = Rb
//   - Branch:     if cond(Ra) goto PC + 4 + 4*Imm
//   - Br/Bsr:     goto PC + 4 + 4*Imm (Bsr: Rd = PC+4)
//   - Jmp:        Rd = PC + 4; goto (Ra)
type Inst struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int64
}

// Class reports the functional-unit class of the instruction. Every stage
// of the timing core asks, so it is one table load.
func (i Inst) Class() Class { return opClass[i.Op] }

// opClass maps every opcode value to its class; values that name no
// opcode are ALU operations, as the rest of the ISA treats them.
var opClass = func() (t [256]Class) {
	for op := range t {
		t[op] = ClassIntALU
	}
	t[OpNop] = ClassNop
	t[OpMul] = ClassIntMul
	for _, op := range []Op{OpLdb, OpLdw, OpLdl, OpLdq} {
		t[op] = ClassLoad
	}
	for _, op := range []Op{OpStb, OpStw, OpStl, OpStq} {
		t[op] = ClassStore
	}
	for _, op := range []Op{OpBeq, OpBne, OpBlt, OpBge, OpBr, OpBsr, OpJmp} {
		t[op] = ClassBranch
	}
	t[OpHalt] = ClassHalt
	return t
}()

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool { return i.Class() == ClassLoad }

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool { return i.Class() == ClassStore }

// IsMem reports whether the instruction accesses data memory.
func (i Inst) IsMem() bool { return i.IsLoad() || i.IsStore() }

// IsBranch reports whether the instruction may redirect control flow.
func (i Inst) IsBranch() bool { return i.Class() == ClassBranch }

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool {
	switch i.Op {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsUncondDirect reports whether the instruction is a PC-relative
// unconditional transfer (always taken, target known at decode).
func (i Inst) IsUncondDirect() bool { return i.Op == OpBr || i.Op == OpBsr }

// IsIndirect reports whether the target comes from a register.
func (i Inst) IsIndirect() bool { return i.Op == OpJmp }

// IsCall reports whether the instruction writes a link register (used by the
// return-address-stack model).
func (i Inst) IsCall() bool {
	return (i.Op == OpBsr || i.Op == OpJmp) && i.Rd != Zero
}

// IsReturn reports whether the instruction is, by convention, a return: an
// indirect jump that does not link.
func (i Inst) IsReturn() bool { return i.Op == OpJmp && i.Rd == Zero }

// MemBytes reports the access width of a load or store, or 0.
func (i Inst) MemBytes() int {
	switch i.Op {
	case OpLdb, OpStb:
		return 1
	case OpLdw, OpStw:
		return 2
	case OpLdl, OpStl:
		return 4
	case OpLdq, OpStq:
		return 8
	}
	return 0
}

// SignExtends reports whether a load sign-extends its result.
func (i Inst) SignExtends() bool { return i.Op == OpLdl }

// Dest returns the destination register, or Zero if the instruction writes no
// register (stores, branches without link, nop, halt).
func (i Inst) Dest() Reg {
	switch i.Class() {
	case ClassIntALU, ClassIntMul, ClassLoad:
		return i.Rd
	case ClassBranch:
		if i.Op == OpBsr || i.Op == OpJmp {
			return i.Rd
		}
	}
	return Zero
}

// WritesReg reports whether the instruction produces a register value.
func (i Inst) WritesReg() bool { return i.Dest() != Zero }

// SrcRegs returns the architectural source registers (at most two). Sources
// equal to Zero are included; callers treat Zero as always-ready.
func (i Inst) SrcRegs() (srcs [2]Reg, n int) {
	switch n = i.NumSrcs(); n {
	case 2:
		srcs[1] = i.Rb
		fallthrough
	case 1:
		srcs[0] = i.Ra
	}
	return srcs, n
}

// NumSrcs is how many source registers SrcRegs returns: 0, 1 (Ra) or 2
// (Ra, Rb).
func (i Inst) NumSrcs() int { return int(opSrcs[i.Op]) }

// opSrcs is how many source registers each opcode value reads: Ra, or Ra
// and Rb (a store's address base and data). Values that name no opcode
// read none.
var opSrcs = func() (t [256]uint8) {
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpSll, OpSrl, OpSra,
		OpCmpEq, OpCmpLt, OpCmpLe, OpCmpUlt, OpStb, OpStw, OpStl, OpStq} {
		t[op] = 2
	}
	for _, op := range []Op{OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpCmpEqi, OpCmpLti,
		OpLda, OpLdah, OpLdb, OpLdw, OpLdl, OpLdq, OpBeq, OpBne, OpBlt, OpBge, OpJmp} {
		t[op] = 1
	}
	return t
}()

func (i Inst) String() string {
	switch i.Class() {
	case ClassNop:
		return "nop"
	case ClassHalt:
		return "halt"
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Ra)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rb, i.Imm, i.Ra)
	case ClassBranch:
		switch i.Op {
		case OpBr:
			return fmt.Sprintf("br %+d", i.Imm)
		case OpBsr:
			return fmt.Sprintf("bsr %s, %+d", i.Rd, i.Imm)
		case OpJmp:
			return fmt.Sprintf("jmp %s, (%s)", i.Rd, i.Ra)
		default:
			return fmt.Sprintf("%s %s, %+d", i.Op, i.Ra, i.Imm)
		}
	default:
		switch i.Op {
		case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpCmpEqi,
			OpCmpLti, OpLda, OpLdah:
			return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Ra, i.Imm)
		default:
			return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Ra, i.Rb)
		}
	}
}
