// Package memimage provides a sparse, paged functional memory image.
//
// Two images back every simulation: the emulator's architectural image
// (advanced in program order as the oracle stream is generated) and the
// timing core's committed image (advanced at store commit). A load executing
// speculatively in the timing core reads the committed image — and therefore
// observes exactly the stale value real hardware would observe when it issues
// ahead of a conflicting older store.
package memimage

import "sort"

const (
	pageShift = 12
	// PageBytes is the allocation granule of the image.
	PageBytes = 1 << pageShift
	pageMask  = PageBytes - 1
)

// Image is a sparse 64-bit byte-addressable memory. The zero value is an
// empty image ready to use; unwritten bytes read as zero.
//
// An image made by CopyOnWrite reads through to a shared, read-only base
// image until it writes a page; the first write to a page copies it from
// the base. Every accessor sees the base through the image: reads, Clone,
// PageAddrs, PageAt and Diff all describe the contents, not the pages the
// image happens to own.
type Image struct {
	pages map[uint64]*[PageBytes]byte // pages this image owns
	base  *Image                      // read-only pages beneath, or nil
}

// New returns an empty image.
func New() *Image {
	return &Image{pages: make(map[uint64]*[PageBytes]byte)}
}

// CopyOnWrite returns an image whose contents equal m's, sharing m's pages
// until its first write to each. m must not be written while such an image
// is in use, and must not itself be copy-on-write. One base may back many
// images, read concurrently.
func (m *Image) CopyOnWrite() *Image {
	if m.base != nil {
		panic("memimage: copy-on-write over a copy-on-write image")
	}
	return &Image{base: m}
}

func (m *Image) page(addr uint64, alloc bool) *[PageBytes]byte {
	key := addr >> pageShift
	if p := m.pages[key]; p != nil {
		return p
	}
	var below *[PageBytes]byte
	if m.base != nil {
		below = m.base.pages[key]
	}
	if !alloc {
		return below
	}
	if m.pages == nil {
		m.pages = make(map[uint64]*[PageBytes]byte)
	}
	p := new([PageBytes]byte)
	if below != nil {
		*p = *below
	}
	m.pages[key] = p
	return p
}

// ByteAt returns the byte at addr.
func (m *Image) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte sets the byte at addr.
func (m *Image) SetByte(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read returns size bytes starting at addr as a little-endian integer.
// size must be 1, 2, 4, or 8; accesses may straddle page boundaries.
func (m *Image) Read(addr uint64, size int) uint64 {
	var v uint64
	if p := m.page(addr, false); p != nil && int(addr&pageMask)+size <= PageBytes {
		off := addr & pageMask
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+uint64(i)])
		}
		return v
	}
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.ByteAt(addr+uint64(i)))
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Image) Write(addr uint64, size int, v uint64) {
	if p := m.page(addr, true); int(addr&pageMask)+size <= PageBytes {
		off := addr & pageMask
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// WriteBytes copies b to [addr, addr+len(b)), page by page — the bulk path
// program loading uses instead of per-byte writes.
func (m *Image) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr, true)
		n := copy(p[addr&pageMask:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// Read32 reads a 32-bit word (used by instruction fetch).
func (m *Image) Read32(addr uint64) uint32 { return uint32(m.Read(addr, 4)) }

// Write32 writes a 32-bit word.
func (m *Image) Write32(addr uint64, v uint32) { m.Write(addr, 4, uint64(v)) }

// Clone returns an independent copy of the image: the pages it owns are
// copied, and a copy-on-write base is shared.
func (m *Image) Clone() *Image {
	c := New()
	c.base = m.base
	for k, p := range m.pages {
		np := new([PageBytes]byte)
		*np = *p
		c.pages[k] = np
	}
	return c
}

// keys returns the key of every touched page, the base's included, in
// ascending order.
func (m *Image) keys() []uint64 {
	keys := make([]uint64, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	if m.base != nil {
		for k := range m.base.pages {
			if m.pages[k] == nil {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Pages reports how many pages have been touched, the base's included
// (test/diagnostic aid).
func (m *Image) Pages() int { return len(m.keys()) }

// PageAddrs returns the base address of every touched page, the base's
// included, in ascending order — the deterministic iteration order
// checkpoint encoding needs.
func (m *Image) PageAddrs() []uint64 {
	keys := m.keys()
	for i := range keys {
		keys[i] <<= pageShift
	}
	return keys
}

// PageAt returns the backing array of the touched page containing addr, or
// nil for an untouched page (which reads as zero). Callers must treat the
// returned page as read-only.
func (m *Image) PageAt(addr uint64) *[PageBytes]byte {
	return m.page(addr, false)
}

// Diff returns the address of the first differing byte between two images,
// or ok=false if they are identical. Unallocated pages compare as zero.
func (m *Image) Diff(o *Image) (addr uint64, ok bool) {
	var zero [PageBytes]byte
	check := func(a, b *Image) (uint64, bool) {
		for _, key := range a.keys() {
			p := a.page(key<<pageShift, false)
			q := b.page(key<<pageShift, false)
			if q == nil {
				q = &zero
			}
			if p == q || *p == *q {
				continue
			}
			for i := range p {
				if p[i] != q[i] {
					return key<<pageShift | uint64(i), true
				}
			}
		}
		return 0, false
	}
	if a, found := check(m, o); found {
		return a, true
	}
	return check(o, m)
}
