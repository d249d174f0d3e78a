package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSpace is the original map-backed Space, kept verbatim as the
// executable spec the page directory is checked against, except that its
// bounds check and Alloc compare n against the room left, so that neither
// can wrap. It is obviously correct, and hashes its page number on every
// access.
type refSpace struct {
	name  string
	size  int64
	pages map[int64]*[pageSize]byte
	brk   int64 // bump allocator watermark
}

func newRefSpace(name string, size int64) *refSpace {
	if size <= 0 {
		panic(fmt.Sprintf("mem: invariant violated: address space %q needs a positive size (got %d)", name, size))
	}
	return &refSpace{name: name, size: size, pages: make(map[int64]*[pageSize]byte)}
}

func (s *refSpace) Allocated() int64 { return s.brk }

func (s *refSpace) TouchedBytes() int64 { return int64(len(s.pages)) * pageSize }

func (s *refSpace) Alloc(n int64, align int64) (int64, error) {
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
	if base < 0 || n > s.size-base {
		return 0, fmt.Errorf("mem: %q out of memory: want %d at %d, size %d", s.name, n, base, s.size)
	}
	s.brk = base + n
	return base, nil
}

func (s *refSpace) check(addr, n int64) {
	if addr < 0 || n < 0 || n > s.size-addr {
		panic(fmt.Sprintf("mem: invariant violated: %q access [%d, %d) must stay inside the space (size %d)", s.name, addr, addr+n, s.size))
	}
}

func (s *refSpace) page(idx int64, create bool) *[pageSize]byte {
	p := s.pages[idx]
	if p == nil && create {
		p = new([pageSize]byte)
		s.pages[idx] = p
	}
	return p
}

func (s *refSpace) Write(addr int64, buf []byte) {
	s.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		idx := addr >> pageBits
		off := addr & (pageSize - 1)
		n := int64(pageSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		p := s.page(idx, true)
		copy(p[off:off+n], buf[:n])
		addr += n
		buf = buf[n:]
	}
}

func (s *refSpace) Read(addr int64, buf []byte) {
	s.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		idx := addr >> pageBits
		off := addr & (pageSize - 1)
		n := int64(pageSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if p := s.page(idx, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := int64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		addr += n
		buf = buf[n:]
	}
}

func (s *refSpace) WriteFloat64(addr int64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	s.Write(addr, b[:])
}

func (s *refSpace) ReadFloat64(addr int64) float64 {
	var b [8]byte
	s.Read(addr, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (s *refSpace) WriteUint64(addr int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

func (s *refSpace) ReadUint64(addr int64) uint64 {
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (s *refSpace) WriteUint32(addr int64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.Write(addr, b[:])
}

func (s *refSpace) ReadUint32(addr int64) uint32 {
	var b [4]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteFloat64s and ReadFloat64s are the specification of the bulk
// accessors the original Space did not have: the whole range is checked
// first, then one 8-byte access per element.
func (s *refSpace) WriteFloat64s(addr int64, src []float64) {
	s.check(addr, int64(len(src))*8)
	for i, v := range src {
		s.WriteFloat64(addr+8*int64(i), v)
	}
}

func (s *refSpace) ReadFloat64s(addr int64, dst []float64) {
	s.check(addr, int64(len(dst))*8)
	for i := range dst {
		dst[i] = s.ReadFloat64(addr + 8*int64(i))
	}
}

func refCopy(dst *refSpace, dstAddr int64, src *refSpace, srcAddr, n int64) {
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

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// progReader decodes a differential program; an exhausted program reads
// as zeros.
type progReader struct{ b []byte }

func (r *progReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// uint reads a little-endian unsigned integer of n bytes.
func (r *progReader) uint(n int) int64 {
	var v int64
	for i := 0; i < n; i++ {
		v |= int64(r.byte()) << (8 * i)
	}
	return v
}

// addr decodes an address for a space of the given size. Most land near
// page boundaries (low pages grow the directory a page at a time, the rest
// lie anywhere in the space), next to the previous address or at the end
// of the space, and some lie outside it.
func (r *progReader) addr(size, prev int64) int64 {
	delta := int64(int8(r.byte()))
	if delta&1 == 0 {
		delta >>= 4 // within eight bytes, where accessors straddle
	}
	switch r.byte() % 8 {
	case 0, 1:
		return r.uint(4)%(size>>pageBits+1)<<pageBits + delta
	case 2:
		return int64(r.byte()%16)<<pageBits + delta
	case 3:
		return size - 64 + delta
	case 4, 5:
		return r.uint(5) % size
	case 6:
		return prev + 8*delta
	default:
		return [...]int64{-1, size, math.MaxInt64 - 3, math.MinInt64}[r.byte()%4] + delta
	}
}

// length decodes an access length of up to three pages.
func (r *progReader) length() int64 {
	switch r.byte() % 4 {
	case 0:
		return int64(r.byte() % 17)
	case 1:
		return r.uint(2) % (pageSize + 1)
	default:
		return r.uint(3) % (3*pageSize + 1)
	}
}

// fill writes a deterministic nonzero pattern derived from seed into buf.
func fill(buf []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

func floats(n, seed int64) []float64 {
	b := make([]byte, 8*n)
	fill(b, seed)
	f := make([]float64, n)
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return f
}

// firstDiff returns the first i < n for which differs(i), or -1.
func firstDiff(n int, differs func(i int) bool) int {
	for i := 0; i < n; i++ {
		if differs(i) {
			return i
		}
	}
	return -1
}

// runDiff runs prog against two fresh Spaces and two refSpaces of the
// given size, and fails at the first divergence: a return value, a read
// buffer, whether the step panicked, or a space's Allocated or
// TouchedBytes. At the end every reference page must exist in the Space
// with the same bytes.
func runDiff(t *testing.T, size int64, prog []byte) {
	t.Helper()
	spaces := [2]*Space{NewSpace("a", size), NewSpace("b", size)}
	refs := [2]*refSpace{newRefSpace("a", size), newRefSpace("b", size)}
	r := &progReader{b: prog}
	var prev int64
	for step := 0; len(r.b) > 0; step++ {
		op, which := r.byte(), int(r.byte()&1)
		s, ref := spaces[which], refs[which]
		addr := r.addr(size, prev)
		prev = addr
		var name string
		var got, want any
		var gotPanic, wantPanic bool
		bufDiff := -1 // first element at which a read buffer differs
		switch op % 12 {
		case 0:
			name = "Write"
			buf := make([]byte, r.length())
			fill(buf, int64(step))
			gotPanic = panics(func() { s.Write(addr, buf) })
			wantPanic = panics(func() { ref.Write(addr, buf) })
		case 1:
			name = "Read"
			g, w := make([]byte, r.length()), []byte(nil)
			fill(g, -1)
			w = append(w, g...)
			gotPanic = panics(func() { s.Read(addr, g) })
			wantPanic = panics(func() { ref.Read(addr, w) })
			bufDiff = firstDiff(len(g), func(i int) bool { return g[i] != w[i] })
		case 2:
			name = "WriteFloat64"
			v := floats(1, int64(step))[0]
			gotPanic = panics(func() { s.WriteFloat64(addr, v) })
			wantPanic = panics(func() { ref.WriteFloat64(addr, v) })
		case 3:
			name = "ReadFloat64"
			var g, w float64
			gotPanic = panics(func() { g = s.ReadFloat64(addr) })
			wantPanic = panics(func() { w = ref.ReadFloat64(addr) })
			got, want = math.Float64bits(g), math.Float64bits(w)
		case 4:
			name = "WriteUint64"
			v := uint64(r.uint(8))
			gotPanic = panics(func() { s.WriteUint64(addr, v) })
			wantPanic = panics(func() { ref.WriteUint64(addr, v) })
		case 5:
			name = "ReadUint64"
			var g, w uint64
			gotPanic = panics(func() { g = s.ReadUint64(addr) })
			wantPanic = panics(func() { w = ref.ReadUint64(addr) })
			got, want = g, w
		case 6:
			name = "WriteUint32"
			v := uint32(r.uint(4))
			gotPanic = panics(func() { s.WriteUint32(addr, v) })
			wantPanic = panics(func() { ref.WriteUint32(addr, v) })
		case 7:
			name = "ReadUint32"
			var g, w uint32
			gotPanic = panics(func() { g = s.ReadUint32(addr) })
			wantPanic = panics(func() { w = ref.ReadUint32(addr) })
			got, want = g, w
		case 8:
			name = "WriteFloat64s"
			src := floats(r.length()/8, int64(step))
			gotPanic = panics(func() { s.WriteFloat64s(addr, src) })
			wantPanic = panics(func() { ref.WriteFloat64s(addr, src) })
		case 9:
			name = "ReadFloat64s"
			n := r.length() / 8
			g, w := floats(n, -1), floats(n, -1)
			gotPanic = panics(func() { s.ReadFloat64s(addr, g) })
			wantPanic = panics(func() { ref.ReadFloat64s(addr, w) })
			bufDiff = firstDiff(len(g), func(i int) bool { return math.Float64bits(g[i]) != math.Float64bits(w[i]) })
		case 10:
			name = "Alloc"
			n := r.uint(4)>>(r.byte()%32) - 16
			if r.byte()%8 == 0 { // base+n would wrap past math.MaxInt64
				n = math.MaxInt64 - n&0xffff
			}
			align := [...]int64{0, 1, 3, 8, 256, 4096, pageSize, -4}[r.byte()%8]
			gb, gerr := s.Alloc(n, align)
			wb, werr := ref.Alloc(n, align)
			got, want = fmt.Sprint(gb, gerr), fmt.Sprint(wb, werr)
		default:
			name = "Copy"
			n := r.length()
			if r.byte()&1 == 0 { // between the two spaces
				other := 1 - which
				src := r.addr(size, addr)
				gotPanic = panics(func() { Copy(spaces[other], addr, s, src, n) })
				wantPanic = panics(func() { refCopy(refs[other], addr, ref, src, n) })
			} else { // within one space; the ranges may overlap
				dst := addr + 8*int64(int8(r.byte())) + int64(r.byte()%8)
				gotPanic = panics(func() { Copy(s, dst, s, addr, n) })
				wantPanic = panics(func() { refCopy(ref, dst, ref, addr, n) })
			}
		}
		if gotPanic != wantPanic {
			t.Fatalf("size %d, step %d: %s(%#x) panicked = %v, reference %v", size, step, name, addr, gotPanic, wantPanic)
		}
		if got != want {
			t.Fatalf("size %d, step %d: %s(%#x) = %v, reference %v", size, step, name, addr, got, want)
		}
		if bufDiff >= 0 {
			t.Fatalf("size %d, step %d: %s(%#x) read buffer differs from the reference at element %d", size, step, name, addr, bufDiff)
		}
		for i := range spaces {
			if g, w := spaces[i].TouchedBytes(), refs[i].TouchedBytes(); g != w {
				t.Fatalf("size %d, step %d: after %s(%#x) space %d TouchedBytes = %d, reference %d", size, step, name, addr, i, g, w)
			}
			if g, w := spaces[i].Allocated(), refs[i].Allocated(); g != w {
				t.Fatalf("size %d, step %d: after %s(%#x) space %d Allocated = %d, reference %d", size, step, name, addr, i, g, w)
			}
		}
	}
	for i := range spaces {
		for idx, want := range refs[i].pages {
			got := spaces[i].page(idx, false)
			if got == nil || *got != *want {
				t.Fatalf("size %d: space %d page %d differs from the reference (committed %v)", size, i, idx, got != nil)
			}
		}
	}
}

// diffSizes are the differential spaces: a small one whose end falls
// mid-page, and a 128 GiB one whose addresses are far apart.
var diffSizes = [2]int64{5*pageSize + 777, 128 << 30}

func TestSpaceMatchesReference(t *testing.T) {
	for _, size := range diffSizes {
		for seed := int64(1); seed <= 8; seed++ {
			prog := make([]byte, 1500)
			rand.New(rand.NewSource(seed)).Read(prog)
			runDiff(t, size, prog)
		}
	}
}

func FuzzSpaceDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		// A step can commit up to four 64-KiB pages on each side, so
		// longer programs are skipped to bound memory.
		if len(prog) == 0 || len(prog) > 1024 {
			return
		}
		runDiff(t, diffSizes[prog[0]&1], prog[1:])
	})
}
