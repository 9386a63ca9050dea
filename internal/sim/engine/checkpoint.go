package engine

// Warm-state checkpoints: the architectural state a fast-forward produces,
// serialized for the result store. A checkpoint is config-independent by
// construction — it holds only functional machine state (registers, PC,
// halted flag) plus the memory image as a page delta against the program's
// initial image — so one entry keyed by (bench, skip-count) serves every
// machine configuration in a sweep, and every backend in the fabric via the
// store's peer-read path.
//
// Payload format (all integers little-endian):
//
//	offset size  field
//	0      4     magic "SVWK"
//	4      4     checkpoint format version
//	8      8     skip count (committed instructions consumed)
//	16     8     PC
//	24     1     halted flag
//	25     256   registers r0..r31
//	281    4     delta page count
//	...          per page: 8-byte base address + PageBytes of data,
//	             ascending address order
//	last 4       CRC-32 (IEEE) of everything before it
//
// The store adds its own framing checksum on disk and on the peer wire;
// the payload CRC here additionally protects the memory-tier copy and makes
// the entry self-validating wherever it travels.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"svwsim/internal/emu"
	"svwsim/internal/memimage"
	"svwsim/internal/prog"
)

const (
	ckptMagic      = "SVWK"
	ckptVersion    = 1
	ckptHeaderSize = 4 + 4 + 8 + 8 + 1 + 32*8 + 4
	// CheckpointKeyPrefix namespaces checkpoint entries in the store.
	// Engine memo keys render a struct and always start with '{', so the
	// prefix can never collide with a result entry.
	CheckpointKeyPrefix = "ckpt|"
)

// CheckpointKey is the store key for the architectural state of bench after
// skip committed instructions. It deliberately omits the machine
// configuration and the sampling spec: functional state depends on neither.
func CheckpointKey(bench string, skip uint64) string {
	return fmt.Sprintf("%s%s|%d", CheckpointKeyPrefix, bench, skip)
}

// encodeCheckpoint serializes st as a delta against the program's initial
// image. Iteration is in ascending page order, so identical states encode
// to identical bytes — checkpoint entries are content-comparable like every
// other store entry.
func encodeCheckpoint(st emu.ArchState, p *prog.Program) []byte {
	base := p.NewImage()
	var deltaAddrs []uint64
	for _, addr := range st.Mem.PageAddrs() {
		cur := st.Mem.PageAt(addr)
		orig := base.PageAt(addr)
		if cur == orig {
			continue // a page the run never wrote, shared with the base
		}
		if orig == nil {
			var zero [memimage.PageBytes]byte
			if *cur != zero {
				deltaAddrs = append(deltaAddrs, addr)
			}
			continue
		}
		if *cur != *orig {
			deltaAddrs = append(deltaAddrs, addr)
		}
	}

	buf := make([]byte, 0, ckptHeaderSize+len(deltaAddrs)*(8+memimage.PageBytes)+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, st.Skipped)
	buf = binary.LittleEndian.AppendUint64(buf, st.PC)
	if st.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, r := range st.Regs {
		buf = binary.LittleEndian.AppendUint64(buf, r)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deltaAddrs)))
	for _, addr := range deltaAddrs {
		buf = binary.LittleEndian.AppendUint64(buf, addr)
		buf = append(buf, st.Mem.PageAt(addr)[:]...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeCheckpoint validates raw and reconstructs the architectural state
// over the program's initial image. Any integrity failure — bad magic or
// version, truncation, checksum mismatch, or a skip count that disagrees
// with the key the entry was fetched under — returns an error; callers
// treat that as a cache miss and fast-forward instead.
func decodeCheckpoint(raw []byte, p *prog.Program, wantSkip uint64) (emu.ArchState, error) {
	var st emu.ArchState
	if len(raw) < ckptHeaderSize+4 || string(raw[0:4]) != ckptMagic {
		return st, errors.New("checkpoint: bad magic or truncated")
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != ckptVersion {
		return st, fmt.Errorf("checkpoint: version %d (want %d)", v, ckptVersion)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return st, errors.New("checkpoint: checksum mismatch")
	}
	st.Skipped = binary.LittleEndian.Uint64(raw[8:16])
	if st.Skipped != wantSkip {
		return st, fmt.Errorf("checkpoint: skip %d under key for %d", st.Skipped, wantSkip)
	}
	st.PC = binary.LittleEndian.Uint64(raw[16:24])
	st.Halted = raw[24] != 0
	off := 25
	for i := range st.Regs {
		st.Regs[i] = binary.LittleEndian.Uint64(raw[off : off+8])
		off += 8
	}
	nPages := int(binary.LittleEndian.Uint32(raw[off : off+4]))
	off += 4
	if len(body) != off+nPages*(8+memimage.PageBytes) {
		return st, errors.New("checkpoint: page table length mismatch")
	}
	st.Mem = p.NewImage()
	for i := 0; i < nPages; i++ {
		addr := binary.LittleEndian.Uint64(raw[off : off+8])
		off += 8
		st.Mem.WriteBytes(addr, raw[off:off+memimage.PageBytes])
		off += memimage.PageBytes
	}
	return st, nil
}
