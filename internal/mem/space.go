package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// pageBits sizes the sparse backing pages (64 KiB).
const pageBits = 16
const pageSize = 1 << pageBits

// page is one committed block of a Space.
type page [pageSize]byte

// Space is a sparse, functional flat address space. It lets simulated
// programs genuinely store and load data in a multi-hundred-GB "physical"
// memory while only committing host pages that are touched. A unified-
// memory APU shares one Space between CPU and GPU models; a discrete
// platform has two Spaces and must copy between them.
type Space struct {
	name string
	size int64
	// pages is indexed by page number and grown on demand to the highest
	// touched page; a nil page is untouched and reads as zero.
	pages   []*page
	touched int64 // committed pages
	brk     int64 // bump allocator watermark
	// released is set by Release; a released space panics on any
	// access to a page it does not hold, which is every page.
	released bool
}

// NewSpace returns an address space of the given byte size. It commits no
// memory until the first write.
func NewSpace(name string, size int64) *Space {
	if size <= 0 {
		panic(fmt.Sprintf("mem: invariant violated: address space %q needs a positive size (got %d)", name, size))
	}
	return &Space{name: name, size: size}
}

// Allocated reports the current bump-allocator watermark.
func (s *Space) Allocated() int64 { return s.brk }

// TouchedBytes reports how much host memory is committed for this space.
func (s *Space) TouchedBytes() int64 { return s.touched * pageSize }

// Alloc reserves n bytes aligned to align (power of two; 0 means 256) and
// returns the base address. It returns an error when the space is full.
func (s *Space) Alloc(n int64, align int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: alloc of %d bytes", n)
	}
	if align <= 0 {
		align = 256
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	base := (s.brk + align - 1) &^ (align - 1)
	if base < 0 || n > s.size-base { // base+n could wrap
		return 0, fmt.Errorf("mem: %q out of memory: want %d at %d, size %d", s.name, n, base, s.size)
	}
	s.brk = base + n
	return base, nil
}

// check panics unless [addr, addr+n) lies inside the space. It compares
// n against size-addr so that an addr near math.MaxInt64 cannot wrap.
func (s *Space) check(addr, n int64) {
	if addr < 0 || n < 0 || n > s.size-addr {
		s.outOfRange(addr, n)
	}
}

// outOfRange is kept out of line so that check inlines into every access.
//
//go:noinline
func (s *Space) outOfRange(addr, n int64) {
	panic(fmt.Sprintf("mem: invariant violated: %q access of %d bytes at %d must stay inside the space (size %d)", s.name, n, addr, s.size))
}

// page returns page idx, or nil when it is untouched and create is false.
func (s *Space) page(idx int64, create bool) *page {
	if idx < int64(len(s.pages)) && s.pages[idx] != nil {
		return s.pages[idx]
	}
	return s.missingPage(idx, create)
}

// missingPage is page for a page the space does not hold, kept out of
// line so that page inlines into every access.
func (s *Space) missingPage(idx int64, create bool) *page {
	if s.released {
		panic(fmt.Sprintf("mem: invariant violated: %q was accessed after Release handed its pages back", s.name))
	}
	if !create {
		return nil
	}
	if idx >= int64(len(s.pages)) {
		s.pages = append(s.pages, make([]*page, idx+1-int64(len(s.pages)))...)
	}
	p := newPage()
	s.pages[idx] = p
	s.touched++
	return p
}

// Write copies buf into the space at addr.
func (s *Space) Write(addr int64, buf []byte) {
	s.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := copy(s.page(addr>>pageBits, true)[off:], buf)
		addr += int64(n)
		buf = buf[n:]
	}
}

// Read copies the space at addr into buf. Untouched bytes read as zero.
func (s *Space) Read(addr int64, buf []byte) {
	s.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := int(min(pageSize-off, int64(len(buf))))
		if p := s.page(addr>>pageBits, false); p != nil {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		addr += int64(n)
		buf = buf[n:]
	}
}

// store writes the low n (4 or 8) bytes of v at addr, little-endian, in
// place when they lie inside one page.
func (s *Space) store(addr int64, v uint64, n int64) {
	s.check(addr, n)
	off := addr & (pageSize - 1)
	if off > pageSize-n { // straddles two pages
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		s.Write(addr, b[:n])
		return
	}
	p := s.page(addr>>pageBits, true)
	if n == 8 {
		binary.LittleEndian.PutUint64(p[off:], v)
	} else {
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
	}
}

// load reads n (4 or 8) bytes at addr as a little-endian integer, in place
// when they lie inside one page.
func (s *Space) load(addr int64, n int64) uint64 {
	s.check(addr, n)
	off := addr & (pageSize - 1)
	if off > pageSize-n { // straddles two pages
		var b [8]byte
		s.Read(addr, b[:n])
		return binary.LittleEndian.Uint64(b[:])
	}
	p := s.page(addr>>pageBits, false)
	switch {
	case p == nil:
		return 0
	case n == 8:
		return binary.LittleEndian.Uint64(p[off:])
	}
	return uint64(binary.LittleEndian.Uint32(p[off:]))
}

// WriteFloat64 stores a float64 at addr.
func (s *Space) WriteFloat64(addr int64, v float64) { s.store(addr, math.Float64bits(v), 8) }

// ReadFloat64 loads a float64 from addr.
func (s *Space) ReadFloat64(addr int64) float64 { return math.Float64frombits(s.load(addr, 8)) }

// WriteUint64 stores a uint64 at addr.
func (s *Space) WriteUint64(addr int64, v uint64) { s.store(addr, v, 8) }

// ReadUint64 loads a uint64 from addr.
func (s *Space) ReadUint64(addr int64) uint64 { return s.load(addr, 8) }

// WriteUint32 stores a uint32 at addr.
func (s *Space) WriteUint32(addr int64, v uint32) { s.store(addr, uint64(v), 4) }

// ReadUint32 loads a uint32 from addr.
func (s *Space) ReadUint32(addr int64) uint32 { return uint32(s.load(addr, 4)) }

// WriteFloat64s stores src as consecutive float64s starting at addr, with
// one bounds check and one page lookup per page.
func (s *Space) WriteFloat64s(addr int64, src []float64) {
	s.check(addr, int64(len(src))*8)
	for len(src) > 0 {
		off := addr & (pageSize - 1)
		if off > pageSize-8 { // an unaligned element straddles two pages
			s.store(addr, math.Float64bits(src[0]), 8)
			addr += 8
			src = src[1:]
			continue
		}
		n := int(min((pageSize-off)/8, int64(len(src))))
		b := s.page(addr>>pageBits, true)[off : off+int64(n)*8]
		for i, v := range src[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		addr += int64(n) * 8
		src = src[n:]
	}
}

// ReadFloat64s loads len(dst) consecutive float64s starting at addr, with
// one bounds check and one page lookup per page. Untouched pages read as
// zero without being committed.
func (s *Space) ReadFloat64s(addr int64, dst []float64) {
	s.check(addr, int64(len(dst))*8)
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		if off > pageSize-8 { // an unaligned element straddles two pages
			dst[0] = math.Float64frombits(s.load(addr, 8))
			addr += 8
			dst = dst[1:]
			continue
		}
		n := int(min((pageSize-off)/8, int64(len(dst))))
		if p := s.page(addr>>pageBits, false); p != nil {
			b := p[off : off+int64(n)*8]
			for i := range dst[:n] {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		} else {
			clear(dst[:n])
		}
		addr += int64(n) * 8
		dst = dst[n:]
	}
}

// Copy copies n bytes from src space/address to dst space/address. It is
// the functional half of a hipMemcpy; timing is charged by the caller.
func Copy(dst *Space, dstAddr int64, src *Space, srcAddr, n int64) {
	buf := make([]byte, 64*1024)
	for n > 0 {
		chunk := int64(len(buf))
		if chunk > n {
			chunk = n
		}
		src.Read(srcAddr, buf[:chunk])
		dst.Write(dstAddr, buf[:chunk])
		srcAddr += chunk
		dstAddr += chunk
		n -= chunk
	}
}
