// Package mem models the physical memories of the simulated machine: host
// DDR4, the NxP board's DDR3, boot ROMs, and memory-mapped device registers.
// It is a pure storage layer — all timing lives with the interconnect and
// core models — but it is faithful about structure: addresses are physical,
// regions are explicit, and the same backing store can be aliased into both
// the host's and the NxP's view of the physical address space, which is how
// the PCIe BAR window is modeled.
package mem

import "fmt"

// chunkBits selects the sparse allocation granule (4 KiB). Multi-gigabyte
// simulated DIMMs only consume real memory for the granules actually
// touched, so a "4 GB" NxP board costs nothing until a workload writes it.
const chunkBits = 12
const chunkSize = 1 << chunkBits

// frameBits selects the code-watch granule (4 KiB, one page frame).
const frameBits = 12

// Sparse is a sparsely-allocated byte store of a fixed logical size.
// The zero value is not usable; create one with NewSparse.
type Sparse struct {
	size   uint64
	chunks map[uint64][]byte

	// Code-watch support for the CPU predecode cache. WatchCode marks the
	// 4 KiB frames an instruction was decoded from; any write landing on a
	// watched frame bumps codeGen. Every write path — bus writes, DMA, and
	// the Region.Store() loader backdoor — funnels through WriteAt, so a
	// predecode cache that snapshots CodeGen at fill time and revalidates
	// it before reuse can never serve stale bytes. The bitmap is lazily
	// allocated: stores that never back code pay one nil check per write.
	watchBits []uint64
	codeGen   uint64
}

// NewSparse creates a sparse store holding size bytes, all initially zero.
func NewSparse(size uint64) *Sparse {
	return &Sparse{size: size, chunks: make(map[uint64][]byte)}
}

// Size returns the logical size in bytes.
func (s *Sparse) Size() uint64 { return s.size }

// AllocatedBytes reports how much backing memory has been materialized.
func (s *Sparse) AllocatedBytes() uint64 {
	return uint64(len(s.chunks)) * chunkSize
}

func (s *Sparse) chunkFor(off uint64, create bool) []byte {
	key := off >> chunkBits
	c := s.chunks[key]
	if c == nil && create {
		c = make([]byte, chunkSize)
		s.chunks[key] = c
	}
	return c
}

// ReadAt copies len(buf) bytes starting at off into buf. Reads of never-
// written granules observe zeros. It panics if the range exceeds the store;
// range validation against region bounds happens in the caller.
func (s *Sparse) ReadAt(off uint64, buf []byte) {
	if off+uint64(len(buf)) > s.size {
		panic(fmt.Sprintf("mem: sparse read [%#x,+%d) beyond size %#x", off, len(buf), s.size))
	}
	for len(buf) > 0 {
		inChunk := off & (chunkSize - 1)
		n := chunkSize - inChunk
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if c := s.chunkFor(off, false); c != nil {
			copy(buf[:n], c[inChunk:inChunk+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
}

// WriteAt copies buf into the store starting at off, materializing granules
// as needed.
func (s *Sparse) WriteAt(off uint64, buf []byte) {
	if off+uint64(len(buf)) > s.size {
		panic(fmt.Sprintf("mem: sparse write [%#x,+%d) beyond size %#x", off, len(buf), s.size))
	}
	s.NoteCodeWrite(off, uint64(len(buf)))
	for len(buf) > 0 {
		inChunk := off & (chunkSize - 1)
		n := chunkSize - inChunk
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		c := s.chunkFor(off, true)
		copy(c[inChunk:inChunk+n], buf[:n])
		buf = buf[n:]
		off += n
	}
}

// WatchCode marks the frames covering [off, off+n) as holding decoded
// code, so future writes there bump the code generation.
func (s *Sparse) WatchCode(off, n uint64) {
	if n == 0 {
		return
	}
	if s.watchBits == nil {
		frames := (s.size + (1 << frameBits) - 1) >> frameBits
		s.watchBits = make([]uint64, (frames+63)/64)
	}
	for f := off >> frameBits; f <= (off+n-1)>>frameBits; f++ {
		s.watchBits[f/64] |= 1 << (f % 64)
	}
}

// CodeGen returns the store's code generation: it changes whenever a
// write touches a frame previously marked by WatchCode.
func (s *Sparse) CodeGen() uint64 { return s.codeGen }

// NoteCodeWrite bumps the code generation if [off, off+n) touches a
// watched frame. WriteAt calls it on every write; callers that mutate
// the store through a View (the zero-copy DMA path) must call it
// themselves. The nil check keeps unwatched stores at one branch per
// write.
func (s *Sparse) NoteCodeWrite(off, n uint64) {
	if s.watchBits == nil || n == 0 {
		return
	}
	for f := off >> frameBits; f <= (off+n-1)>>frameBits; f++ {
		if s.watchBits[f/64]&(1<<(f%64)) != 0 {
			s.codeGen++
			return
		}
	}
}

// View returns a writable slice aliasing [off, off+n) when the range
// lies within one materialized allocation granule. Callers that hold a
// view across writes to the same store observe those writes (it aliases
// the backing array); the predecode cache therefore revalidates CodeGen
// instead of holding views. A false return (range straddles granules or
// is not yet materialized) means the caller must fall back to copying.
func (s *Sparse) View(off, n uint64) ([]byte, bool) {
	if off+n > s.size || off+n < off {
		return nil, false
	}
	inChunk := off & (chunkSize - 1)
	if inChunk+n > chunkSize {
		return nil, false
	}
	c := s.chunkFor(off, false)
	if c == nil {
		return nil, false
	}
	return c[inChunk : inChunk+n : inChunk+n], true
}
