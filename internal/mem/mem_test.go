package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSparseZeroFill(t *testing.T) {
	s := NewSparse(1 << 20)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	s.ReadAt(12345, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if s.AllocatedBytes() != 0 {
		t.Errorf("reads materialized %d bytes", s.AllocatedBytes())
	}
}

func TestSparseReadWriteAcrossChunks(t *testing.T) {
	s := NewSparse(1 << 20)
	data := make([]byte, 3*chunkSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := uint64(chunkSize - 9) // straddles several chunk boundaries
	s.WriteAt(off, data)
	got := make([]byte, len(data))
	s.ReadAt(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestSparseBoundsPanic(t *testing.T) {
	s := NewSparse(100)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds write did not panic")
		}
	}()
	s.WriteAt(99, []byte{1, 2})
}

func TestSparseLazyAllocation(t *testing.T) {
	s := NewSparse(4 << 30) // "4 GB" DIMM
	s.WriteAt(3<<30, []byte{1})
	if got := s.AllocatedBytes(); got != chunkSize {
		t.Errorf("AllocatedBytes = %d, want %d", got, chunkSize)
	}
}

func TestSparseRoundTripProperty(t *testing.T) {
	s := NewSparse(1 << 22)
	f := func(off uint32, data []byte) bool {
		o := uint64(off) % (1<<22 - 4096)
		if len(data) > 4096 {
			data = data[:4096]
		}
		s.WriteAt(o, data)
		got := make([]byte, len(data))
		s.ReadAt(o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddressSpaceMapOverlapRejected(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(0, NewRAM("dram", 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x800, NewRAM("other", 0x1000)); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := as.Map(0x1000, NewRAM("adjacent", 0x1000)); err != nil {
		t.Errorf("adjacent map rejected: %v", err)
	}
}

func TestAddressSpaceWrapRejected(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(^uint64(0)-10, NewRAM("wrap", 0x1000)); err == nil {
		t.Error("wrapping map accepted")
	}
}

func TestLookupAndFault(t *testing.T) {
	as := NewAddressSpace("host")
	dram := NewRAM("dram", 0x10000)
	if err := as.Map(0x1000, dram); err != nil {
		t.Fatal(err)
	}
	r, off, err := as.Lookup(0x1234)
	if err != nil || r != dram || off != 0x234 {
		t.Errorf("Lookup = %v, %#x, %v", r, off, err)
	}
	if _, _, err := as.Lookup(0x0); err == nil {
		t.Error("hole lookup succeeded")
	}
	var fe *FaultError
	_, _, err = as.Lookup(0x20000)
	if !errors.As(err, &fe) {
		t.Errorf("want FaultError, got %v", err)
	}
}

func TestSharedRegionAliasing(t *testing.T) {
	// One DIMM visible at different bases in two views: the BAR model.
	dimm := NewRAM("nxp-ddr", 1<<20)
	hostView := NewAddressSpace("host")
	nxpView := NewAddressSpace("nxp")
	if err := hostView.Map(0xA000_0000, dimm); err != nil {
		t.Fatal(err)
	}
	if err := nxpView.Map(0x8000_0000, dimm); err != nil {
		t.Fatal(err)
	}
	if err := hostView.WriteU64(0xA000_0040, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := nxpView.ReadU64(0x8000_0040)
	if err != nil || v != 0xDEADBEEF {
		t.Errorf("aliased read = %#x, %v", v, err)
	}
	base, ok := nxpView.BaseOf(dimm)
	if !ok || base != 0x8000_0000 {
		t.Errorf("BaseOf = %#x, %v", base, ok)
	}
}

func TestROMWriteRejected(t *testing.T) {
	rom := NewROM("boot", []byte{1, 2, 3, 4})
	as := NewAddressSpace("nxp")
	if err := as.Map(0xFFFF_0000, rom); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU8(0xFFFF_0002)
	if err != nil || v != 3 {
		t.Errorf("ROM read = %d, %v", v, err)
	}
	if err := as.WriteU8(0xFFFF_0000, 9); err == nil {
		t.Error("ROM write accepted")
	}
	// Backdoor store writes still work (factory programming).
	rom.Store().WriteAt(0, []byte{9})
	if v, _ := as.ReadU8(0xFFFF_0000); v != 9 {
		t.Error("backdoor ROM programming failed")
	}
}

type regDevice struct {
	last   uint64
	reads  int
	failRd bool
}

func (d *regDevice) MMIORead(off uint64, buf []byte) error {
	d.reads++
	if d.failRd {
		return errors.New("device error")
	}
	for i := range buf {
		buf[i] = byte(d.last >> (8 * (uint(i) + uint(off)*8)))
	}
	return nil
}

func (d *regDevice) MMIOWrite(off uint64, buf []byte) error {
	d.last = 0
	for i := range buf {
		d.last |= uint64(buf[i]) << (8 * i)
	}
	return nil
}

func TestMMIODispatch(t *testing.T) {
	dev := &regDevice{}
	as := NewAddressSpace("host")
	if err := as.Map(0xB000_0000, NewMMIO("regs", 0x100, dev)); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU32(0xB000_0000, 0x12345678); err != nil {
		t.Fatal(err)
	}
	if dev.last != 0x12345678 {
		t.Errorf("device saw %#x", dev.last)
	}
	if v, err := as.ReadU32(0xB000_0000); err != nil || v != 0x12345678 {
		t.Errorf("MMIO read = %#x, %v", v, err)
	}
	dev.failRd = true
	if _, err := as.ReadU32(0xB000_0000); err == nil {
		t.Error("device error not propagated")
	}
}

func TestCrossRegionAccessRejected(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(0, NewRAM("a", 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x1000, NewRAM("b", 0x1000)); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if err := as.Read(0xFFC, buf[:]); err == nil {
		t.Error("cross-region read accepted")
	}
}

func TestScalarAccessors(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(0, NewRAM("dram", 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU16(0x10, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU16(0x10); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v, _ := as.ReadU8(0x11); v != 0xBE {
		t.Errorf("little-endian layout violated: %#x", v)
	}
	if err := as.WriteU64(0x20, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU32(0x20); v != 0x55667788 {
		t.Errorf("U32 low half = %#x", v)
	}
	if v, _ := as.ReadU64(0x20); v != 0x1122334455667788 {
		t.Errorf("U64 = %#x", v)
	}
}

func TestRegionsListing(t *testing.T) {
	as := NewAddressSpace("host")
	_ = as.Map(0x2000, NewRAM("b", 0x100))
	_ = as.Map(0x1000, NewRAM("a", 0x100))
	rs := as.Regions()
	if len(rs) != 2 || rs[0].Base != 0x1000 || rs[1].Base != 0x2000 {
		t.Errorf("Regions() = %+v", rs)
	}
}

func TestKindString(t *testing.T) {
	if RAM.String() != "RAM" || ROM.String() != "ROM" || MMIO.String() != "MMIO" {
		t.Error("Kind.String broken")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestSparseLookasideFillsOnlyMaterializedGranules(t *testing.T) {
	s := NewSparse(1 << 30)
	off := uint64(5*chunkSize + 24)
	slot := &s.look[(off>>chunkBits)%lookSlots]
	var b [8]byte
	s.ReadAt(off, b[:])
	if b != [8]byte{} {
		t.Fatalf("unwritten granule read %x, want zeros", b)
	}
	if slot.c != nil || s.AllocatedBytes() != 0 {
		t.Fatal("reading a missing granule cached or materialized it")
	}
	s.WriteAt(off, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if slot.c == nil || slot.key != off>>chunkBits {
		t.Fatalf("the write left the slot at key %d, granule %v", slot.key, slot.c != nil)
	}
	s.ReadAt(off, b[:])
	if b != [8]byte{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Errorf("read back %x through the slot", b)
	}
}

func TestSparseLookasideAliasedGranulesAlternate(t *testing.T) {
	s := NewSparse(1 << 30)
	// Two granules lookSlots apart share one slot; a third, written only
	// later, shares it too.
	offs := []uint64{3 * chunkSize, (3 + lookSlots) * chunkSize, (3 + 2*lookSlots) * chunkSize}
	s.WriteAt(offs[0]+8, []byte{0xAA})
	s.WriteAt(offs[1]+8, []byte{0xBB})
	var b [1]byte
	for i := 0; i < 8; i++ {
		for j, want := range []byte{0xAA, 0xBB, 0} {
			s.ReadAt(offs[j]+8, b[:])
			if b[0] != want {
				t.Fatalf("round %d: granule %d read %#x, want %#x", i, j, b[0], want)
			}
		}
		s.WriteAt(offs[i%2]+9, []byte{byte(i)})
		s.ReadAt(offs[i%2]+9, b[:])
		if b[0] != byte(i) {
			t.Fatalf("round %d: granule %d lost a write", i, i%2)
		}
	}
	s.WriteAt(offs[2]+8, []byte{0xCC})
	for j, want := range []byte{0xAA, 0xBB, 0xCC} {
		if s.ReadAt(offs[j]+8, b[:]); b[0] != want {
			t.Errorf("granule %d read %#x, want %#x", j, b[0], want)
		}
	}
	if got := s.AllocatedBytes(); got != 3*chunkSize {
		t.Errorf("AllocatedBytes = %d, want 3 granules", got)
	}
}

func TestLookupAcrossLaterMap(t *testing.T) {
	as := NewAddressSpace("host")
	a, b, c := NewRAM("a", 0x1000), NewRAM("b", 0x1000), NewRAM("c", 0x1000)
	if err := as.Map(0x4000, a); err != nil {
		t.Fatal(err)
	}
	check := func(addr uint64, want *Region, wantOff uint64) {
		t.Helper()
		r, off, err := as.Lookup(addr)
		if want == nil {
			if err == nil {
				t.Errorf("Lookup(%#x) = %s+%#x, want a fault", addr, r.Name, off)
			}
			return
		}
		if err != nil || r != want || off != wantOff {
			t.Errorf("Lookup(%#x) = %v+%#x, %v; want %s+%#x", addr, r, off, err, want.Name, wantOff)
		}
	}
	check(0x4010, a, 0x10) // remembers a
	check(0x2010, nil, 0)
	// Mapping below a shifts a's index in the sorted mappings.
	if err := as.Map(0x2000, b); err != nil {
		t.Fatal(err)
	}
	check(0x2010, b, 0x10)
	check(0x4FFF, a, 0xFFF)
	check(0x5000, nil, 0)
	if err := as.Map(0x5000, c); err != nil {
		t.Fatal(err)
	}
	check(0x5000, c, 0)
	check(0x4000, a, 0)
	check(0x3000, nil, 0)
	check(0x2000, b, 0)
}
