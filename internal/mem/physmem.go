package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Kind classifies what backs a region of physical address space.
type Kind int

const (
	// RAM is ordinary byte-addressable memory backed by a Sparse store.
	RAM Kind = iota
	// ROM is like RAM but rejects writes through the bus (loading via
	// Region.Store is still allowed, modeling factory programming).
	ROM
	// MMIO dispatches accesses to a device handler.
	MMIO
)

func (k Kind) String() string {
	switch k {
	case RAM:
		return "RAM"
	case ROM:
		return "ROM"
	case MMIO:
		return "MMIO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is the handler interface for MMIO regions. Offsets are relative to
// the region base. Devices see word-sized accesses as byte slices, each a
// private copy of the bytes the bus carries (never the caller's buffer);
// register devices typically decode 4- or 8-byte accesses. The slice is
// valid only during the call: the address space reuses it for its next
// access of up to 8 bytes, so a device must not keep it, and must not
// access the same address space from inside the call.
type Device interface {
	MMIORead(off uint64, buf []byte) error
	MMIOWrite(off uint64, buf []byte) error
}

// Region is a contiguous range of a physical address space. The same Region
// (and backing store) may be installed in multiple AddressSpaces at
// different bases; that is how one DIMM appears at 0x8000_0000 to the NxP
// and behind a PCIe BAR to the host.
type Region struct {
	Name  string
	Kind  Kind
	size  uint64
	store *Sparse
	dev   Device
}

// NewRAM creates a RAM region of the given size.
func NewRAM(name string, size uint64) *Region {
	return &Region{Name: name, Kind: RAM, size: size, store: NewSparse(size)}
}

// NewROM creates a ROM region preloaded with contents.
func NewROM(name string, contents []byte) *Region {
	r := &Region{Name: name, Kind: ROM, size: uint64(len(contents)), store: NewSparse(uint64(len(contents)))}
	r.store.WriteAt(0, contents)
	return r
}

// NewMMIO creates a device-backed region.
func NewMMIO(name string, size uint64, dev Device) *Region {
	return &Region{Name: name, Kind: MMIO, size: size, dev: dev}
}

// Size returns the region length in bytes.
func (r *Region) Size() uint64 { return r.size }

// Store exposes the backing store for RAM/ROM regions (nil for MMIO). It is
// the loader's backdoor: writing through it models JTAG/factory programming
// and bypasses ROM write protection and bus accounting.
func (r *Region) Store() *Sparse { return r.store }

// mapping places a region at a base address within one address space.
type mapping struct {
	base   uint64
	region *Region
}

// AddressSpace is one observer's view of physical memory: an ordered set of
// non-overlapping region mappings. The simulated machine has two — the host
// view (host DRAM at 0, NxP resources behind BAR windows) and the NxP view
// (host DRAM at 0, local resources at their native addresses).
type AddressSpace struct {
	Name     string
	mappings []mapping // sorted by base

	// last is the mapping Lookup hit most recently, tried before the
	// search. Mappings are only ever added and never overlap, so a hit
	// on it is the search's answer too; Map resets it.
	last mapping

	// mmioBuf is the private copy a Device sees for an access of up to 8
	// bytes, so a register access allocates nothing.
	mmioBuf [8]byte
}

// NewAddressSpace creates an empty view.
func NewAddressSpace(name string) *AddressSpace {
	return &AddressSpace{Name: name}
}

// Map installs region at base. It returns an error if the range overlaps an
// existing mapping or wraps the address space.
func (as *AddressSpace) Map(base uint64, region *Region) error {
	end := base + region.size
	if end < base {
		return fmt.Errorf("mem: %s: mapping %q at %#x wraps address space", as.Name, region.Name, base)
	}
	for _, m := range as.mappings {
		mEnd := m.base + m.region.size
		if base < mEnd && m.base < end {
			return fmt.Errorf("mem: %s: mapping %q [%#x,%#x) overlaps %q [%#x,%#x)",
				as.Name, region.Name, base, end, m.region.Name, m.base, mEnd)
		}
	}
	as.mappings = append(as.mappings, mapping{base: base, region: region})
	sort.Slice(as.mappings, func(i, j int) bool { return as.mappings[i].base < as.mappings[j].base })
	as.last = mapping{}
	return nil
}

// Lookup resolves addr to its region and offset.
func (as *AddressSpace) Lookup(addr uint64) (*Region, uint64, error) {
	if m := as.last; m.region != nil && addr-m.base < m.region.size {
		return m.region, addr - m.base, nil
	}
	i := sort.Search(len(as.mappings), func(i int) bool {
		return as.mappings[i].base+as.mappings[i].region.size > addr
	})
	if i < len(as.mappings) && as.mappings[i].base <= addr {
		as.last = as.mappings[i]
		return as.mappings[i].region, addr - as.mappings[i].base, nil
	}
	return nil, 0, &FaultError{Addr: addr, Space: as.Name, Reason: "no region"}
}

// BaseOf returns the base address of region within this space.
func (as *AddressSpace) BaseOf(region *Region) (uint64, bool) {
	for _, m := range as.mappings {
		if m.region == region {
			return m.base, true
		}
	}
	return 0, false
}

// Regions lists the mappings in ascending base order as (base, region) pairs.
func (as *AddressSpace) Regions() []struct {
	Base   uint64
	Region *Region
} {
	out := make([]struct {
		Base   uint64
		Region *Region
	}, len(as.mappings))
	for i, m := range as.mappings {
		out[i].Base = m.base
		out[i].Region = m.region
	}
	return out
}

// FaultError reports a physical access that hit no region or violated a
// region's access rules. The machine turns these into machine-check-style
// failures; software-visible page faults are produced by the paging layer,
// not here.
type FaultError struct {
	Addr   uint64
	Space  string
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: physical access fault at %#x in %s view: %s", e.Addr, e.Space, e.Reason)
}

// Read copies len(buf) bytes from physical address addr in this view. The
// access must not cross a region boundary (real buses split such bursts;
// the simulated cores never issue them).
func (as *AddressSpace) Read(addr uint64, buf []byte) error {
	r, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > r.size {
		return &FaultError{Addr: addr, Space: as.Name, Reason: "access crosses region boundary"}
	}
	if r.Kind == MMIO {
		// A device gets a private copy: handing it buf would make every
		// caller's buffer escape to the heap, the MMIO-free loads included.
		b := as.mmioCopy(len(buf))
		if err := r.dev.MMIORead(off, b); err != nil {
			return err
		}
		copy(buf, b)
		return nil
	}
	r.store.ReadAt(off, buf)
	return nil
}

// Write copies buf to physical address addr in this view.
func (as *AddressSpace) Write(addr uint64, buf []byte) error {
	r, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > r.size {
		return &FaultError{Addr: addr, Space: as.Name, Reason: "access crosses region boundary"}
	}
	switch r.Kind {
	case MMIO:
		b := as.mmioCopy(len(buf)) // a private copy, as in Read
		copy(b, buf)
		return r.dev.MMIOWrite(off, b)
	case ROM:
		return &FaultError{Addr: addr, Space: as.Name, Reason: "write to ROM"}
	}
	r.store.WriteAt(off, buf)
	return nil
}

// mmioCopy returns a zeroed n-byte private copy for a Device: the address
// space's own buffer up to 8 bytes, a fresh slice beyond.
func (as *AddressSpace) mmioCopy(n int) []byte {
	if n <= len(as.mmioBuf) {
		b := as.mmioBuf[:n]
		clear(b)
		return b
	}
	return make([]byte, n)
}

// View returns a slice aliasing [addr, addr+n) for RAM/ROM-backed
// ranges that lie within one materialized allocation granule, avoiding a
// copy. MMIO, unmaterialized (all-zero) ranges, region-crossing and
// granule-straddling ranges return false, directing the caller to the
// copying Read/Write path. Writes through the view bypass bus
// accounting and ROM protection and must be followed by
// Sparse.NoteCodeWrite; the store it aliases is returned so callers can
// do that.
func (as *AddressSpace) View(addr, n uint64) ([]byte, *Sparse, bool) {
	r, off, err := as.Lookup(addr)
	if err != nil || r.Kind == MMIO || off+n > r.size {
		return nil, nil, false
	}
	b, ok := r.store.View(off, n)
	if !ok {
		return nil, nil, false
	}
	return b, r.store, true
}

// WatchCode marks [addr, addr+n) as holding decoded code in its backing
// store (see Sparse.WatchCode) and returns that store, so the caller can
// snapshot and revalidate its CodeGen. MMIO and unmapped ranges return
// false: device-backed code cannot be watched and must not be cached.
func (as *AddressSpace) WatchCode(addr, n uint64) (*Sparse, bool) {
	r, off, err := as.Lookup(addr)
	if err != nil || r.Kind == MMIO || off+n > r.size {
		return nil, false
	}
	r.store.WatchCode(off, n)
	return r.store, true
}

// ReadU64 reads a little-endian 64-bit word.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteU64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit word.
func (as *AddressSpace) ReadU32(addr uint64) (uint32, error) {
	var b [4]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 writes a little-endian 32-bit word.
func (as *AddressSpace) WriteU32(addr uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU16 reads a little-endian 16-bit word.
func (as *AddressSpace) ReadU16(addr uint64) (uint16, error) {
	var b [2]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 writes a little-endian 16-bit word.
func (as *AddressSpace) WriteU16(addr uint64, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU8 reads one byte.
func (as *AddressSpace) ReadU8(addr uint64) (uint8, error) {
	var b [1]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 writes one byte.
func (as *AddressSpace) WriteU8(addr uint64, v uint8) error {
	return as.Write(addr, []byte{v})
}
