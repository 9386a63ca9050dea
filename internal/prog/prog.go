// Package prog builds executable programs for the emulator: an
// assembler-like Builder with labels, branches and data segments, producing a
// memory image plus entry point.
package prog

import (
	"fmt"
	"sync"

	"svwsim/internal/isa"
	"svwsim/internal/memimage"
)

// Default layout. Code and data live far apart so instruction and data
// accesses never alias in the data cache model.
const (
	DefaultCodeBase = 0x0000_1000
	DefaultDataBase = 0x0100_0000
	DefaultStackTop = 0x7fff_f000
)

// Program is a built, loadable program.
type Program struct {
	Name  string
	Entry uint64
	Code  []uint32 // encoded instructions at CodeBase
	Base  uint64   // CodeBase
	Data  []Segment

	decoded []isa.Inst // Decode(Code[i]), precomputed at Build

	initOnce sync.Once
	initial  *memimage.Image // code and data, shared read-only by NewImage
}

// Decoded returns the decode of each code word: decoded[i] is
// isa.Decode(Code[i]), the instruction at Base+4i. Emulators install it as
// a decode table (emu.Emulator.SetDecodeTable) so hot loop bodies are never
// re-decoded. The slice is shared and must not be modified.
func (p *Program) Decoded() []isa.Inst {
	if p.decoded == nil && len(p.Code) > 0 {
		// Programs constructed literally (tests) rather than via Build.
		p.decoded = decodeAll(p.Code)
	}
	return p.decoded
}

func decodeAll(code []uint32) []isa.Inst {
	out := make([]isa.Inst, len(code))
	for i, w := range code {
		out[i] = isa.Decode(w)
	}
	return out
}

// Segment is an initialized data region.
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// NewImage instantiates a fresh memory image holding the program. Each call
// returns an independent image, so one Program can seed many runs: the
// images are copy-on-write over one read-only initial image the program
// builds on first use, so a run copies only the pages it writes.
func (p *Program) NewImage() *memimage.Image {
	p.initOnce.Do(func() {
		m := memimage.New()
		for i, w := range p.Code {
			m.Write32(p.Base+uint64(4*i), w)
		}
		for _, s := range p.Data {
			m.WriteBytes(s.Addr, s.Bytes)
		}
		p.initial = m
	})
	return p.initial.CopyOnWrite()
}

// Builder assembles a program. Methods panic on malformed input (unknown
// label, immediate overflow) because programs are constructed by in-repo
// generators; a panic is a generator bug, not a runtime condition.
type Builder struct {
	name    string
	base    uint64
	insts   []isa.Inst
	labels  map[string]int // label -> instruction index
	fixups  []fixup
	data    []Segment
	nextLbl int
}

type fixup struct {
	instIdx int
	label   string
}

// NewBuilder returns a Builder assembling at DefaultCodeBase.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, base: DefaultCodeBase, labels: make(map[string]int)}
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 { return b.base + uint64(4*len(b.insts)) }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// Label binds name to the next emitted instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("prog: duplicate label " + name)
	}
	b.labels[name] = len(b.insts)
}

// UniqueLabel returns a fresh label name with the given prefix.
func (b *Builder) UniqueLabel(prefix string) string {
	b.nextLbl++
	return fmt.Sprintf("%s.%d", prefix, b.nextLbl)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(i isa.Inst) {
	// Validate encodability immediately: errors surface at build site.
	isa.MustEncode(i)
	b.insts = append(b.insts, i)
}

func (b *Builder) emitBranch(i isa.Inst, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.insts = append(b.insts, i)
}

// Data places raw bytes at addr.
func (b *Builder) Data(addr uint64, bytes []byte) {
	b.data = append(b.data, Segment{Addr: addr, Bytes: bytes})
}

// DataQuads places 64-bit little-endian values at addr.
func (b *Builder) DataQuads(addr uint64, vals []uint64) {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(v >> (8 * j))
		}
	}
	b.Data(addr, buf)
}

// Build resolves labels and returns the program.
func (b *Builder) Build() *Program {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			panic("prog: undefined label " + f.label)
		}
		// disp counts instruction words from the instruction after the branch.
		b.insts[f.instIdx].Imm = int64(target - f.instIdx - 1)
		isa.MustEncode(b.insts[f.instIdx])
	}
	code := make([]uint32, len(b.insts))
	for i, inst := range b.insts {
		code[i] = isa.MustEncode(inst)
	}
	return &Program{
		Name:    b.name,
		Entry:   b.base,
		Base:    b.base,
		Code:    code,
		Data:    b.data,
		decoded: decodeAll(code),
	}
}

// --- Instruction helpers -------------------------------------------------

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNop}) }

// Halt emits a halt.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHalt}) }

// Add emits rd = ra + rb.
func (b *Builder) Add(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpAdd, Rd: rd, Ra: ra, Rb: rb})
}

// Sub emits rd = ra - rb.
func (b *Builder) Sub(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSub, Rd: rd, Ra: ra, Rb: rb})
}

// Mul emits rd = ra * rb.
func (b *Builder) Mul(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpMul, Rd: rd, Ra: ra, Rb: rb})
}

// And emits rd = ra & rb.
func (b *Builder) And(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpAnd, Rd: rd, Ra: ra, Rb: rb})
}

// Or emits rd = ra | rb.
func (b *Builder) Or(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpOr, Rd: rd, Ra: ra, Rb: rb})
}

// Xor emits rd = ra ^ rb.
func (b *Builder) Xor(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpXor, Rd: rd, Ra: ra, Rb: rb})
}

// Sll emits rd = ra << rb.
func (b *Builder) Sll(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSll, Rd: rd, Ra: ra, Rb: rb})
}

// Srl emits rd = ra >> rb (logical).
func (b *Builder) Srl(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSrl, Rd: rd, Ra: ra, Rb: rb})
}

// CmpEq emits rd = (ra == rb).
func (b *Builder) CmpEq(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpCmpEq, Rd: rd, Ra: ra, Rb: rb})
}

// CmpLt emits rd = (ra < rb), signed.
func (b *Builder) CmpLt(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpCmpLt, Rd: rd, Ra: ra, Rb: rb})
}

// CmpUlt emits rd = (ra < rb), unsigned.
func (b *Builder) CmpUlt(rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpCmpUlt, Rd: rd, Ra: ra, Rb: rb})
}

// Addi emits rd = ra + imm.
func (b *Builder) Addi(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: rd, Ra: ra, Imm: imm})
}

// Andi emits rd = ra & imm.
func (b *Builder) Andi(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpAndi, Rd: rd, Ra: ra, Imm: imm})
}

// Ori emits rd = ra | imm.
func (b *Builder) Ori(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpOri, Rd: rd, Ra: ra, Imm: imm})
}

// Xori emits rd = ra ^ imm.
func (b *Builder) Xori(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpXori, Rd: rd, Ra: ra, Imm: imm})
}

// Slli emits rd = ra << imm.
func (b *Builder) Slli(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpSlli, Rd: rd, Ra: ra, Imm: imm})
}

// Srli emits rd = ra >> imm (logical).
func (b *Builder) Srli(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpSrli, Rd: rd, Ra: ra, Imm: imm})
}

// CmpLti emits rd = (ra < imm), signed.
func (b *Builder) CmpLti(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpCmpLti, Rd: rd, Ra: ra, Imm: imm})
}

// Lda emits rd = ra + imm.
func (b *Builder) Lda(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpLda, Rd: rd, Ra: ra, Imm: imm})
}

// Ldah emits rd = ra + (imm << 16).
func (b *Builder) Ldah(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpLdah, Rd: rd, Ra: ra, Imm: imm})
}

// MovImm loads an arbitrary 32-bit constant using Ldah+Lda.
func (b *Builder) MovImm(rd isa.Reg, v uint64) {
	lo := int64(int16(v))
	hi := int64(int32(v)-int32(lo)) >> 16
	if hi != 0 {
		b.Ldah(rd, isa.Zero, hi)
		b.Lda(rd, rd, lo)
	} else {
		b.Lda(rd, isa.Zero, lo)
	}
}

// Mov copies ra into rd.
func (b *Builder) Mov(rd, ra isa.Reg) { b.Add(rd, ra, isa.Zero) }

// Ldq emits rd = mem64[ra+off].
func (b *Builder) Ldq(rd isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpLdq, Rd: rd, Ra: ra, Imm: off})
}

// Ldl emits rd = sext(mem32[ra+off]).
func (b *Builder) Ldl(rd isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpLdl, Rd: rd, Ra: ra, Imm: off})
}

// Ldw emits rd = zext(mem16[ra+off]).
func (b *Builder) Ldw(rd isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpLdw, Rd: rd, Ra: ra, Imm: off})
}

// Ldb emits rd = zext(mem8[ra+off]).
func (b *Builder) Ldb(rd isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpLdb, Rd: rd, Ra: ra, Imm: off})
}

// Stq emits mem64[ra+off] = rs.
func (b *Builder) Stq(rs isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpStq, Rb: rs, Ra: ra, Imm: off})
}

// Stl emits mem32[ra+off] = rs.
func (b *Builder) Stl(rs isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpStl, Rb: rs, Ra: ra, Imm: off})
}

// Stw emits mem16[ra+off] = rs.
func (b *Builder) Stw(rs isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpStw, Rb: rs, Ra: ra, Imm: off})
}

// Stb emits mem8[ra+off] = rs.
func (b *Builder) Stb(rs isa.Reg, off int64, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpStb, Rb: rs, Ra: ra, Imm: off})
}

// Beq emits "branch to label if ra == 0".
func (b *Builder) Beq(ra isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: isa.OpBeq, Ra: ra}, label)
}

// Bne emits "branch to label if ra != 0".
func (b *Builder) Bne(ra isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: isa.OpBne, Ra: ra}, label)
}

// Blt emits "branch to label if ra < 0", signed.
func (b *Builder) Blt(ra isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: isa.OpBlt, Ra: ra}, label)
}

// Bge emits "branch to label if ra >= 0", signed.
func (b *Builder) Bge(ra isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: isa.OpBge, Ra: ra}, label)
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) {
	b.emitBranch(isa.Inst{Op: isa.OpBr}, label)
}

// Bsr emits a call: rd = PC+4, branch to label.
func (b *Builder) Bsr(rd isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: isa.OpBsr, Rd: rd}, label)
}

// Jmp emits rd = PC+4; goto (ra). With rd == Zero this is a return.
func (b *Builder) Jmp(rd, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpJmp, Rd: rd, Ra: ra})
}

// Ret emits a return through ra.
func (b *Builder) Ret(ra isa.Reg) { b.Jmp(isa.Zero, ra) }
