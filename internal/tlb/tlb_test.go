package tlb

import (
	"testing"

	"flick/internal/paging"
)

func walkFor(va, pa, size uint64, flags paging.Flags) paging.Walk {
	base := va &^ (size - 1)
	pbase := pa &^ (size - 1)
	return paging.Walk{VA: va, PhysAddr: pbase + (va - base), PageBase: pbase, PageSize: size, Flags: flags}
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New("d-tlb", 4)
	if _, ok := tl.Lookup(0x1000); ok {
		t.Fatal("empty TLB hit")
	}
	r := tl.Insert(0x1234, walkFor(0x1234, 0x9234, paging.PageSize4K, paging.Flags{Writable: true}))
	if r.Phys != 0x9234 {
		t.Errorf("insert result = %+v", r)
	}
	r2, ok := tl.Lookup(0x1FF8)
	if !ok || r2.Phys != 0x9FF8 {
		t.Errorf("hit = %+v, %v", r2, ok)
	}
	hits, misses := tl.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New("d-tlb", 2)
	tl.Insert(0x1000, walkFor(0x1000, 0xA000, paging.PageSize4K, paging.Flags{}))
	tl.Insert(0x2000, walkFor(0x2000, 0xB000, paging.PageSize4K, paging.Flags{}))
	// Touch 0x1000 so 0x2000 becomes LRU.
	if _, ok := tl.Lookup(0x1000); !ok {
		t.Fatal("expected hit")
	}
	tl.Insert(0x3000, walkFor(0x3000, 0xC000, paging.PageSize4K, paging.Flags{}))
	if _, ok := tl.Lookup(0x2000); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := tl.Lookup(0x1000); !ok {
		t.Error("recently used entry evicted")
	}
	if tl.Len() != 2 {
		t.Errorf("Len = %d", tl.Len())
	}
}

func TestHugePageEntryCoverage(t *testing.T) {
	tl := New("d-tlb", 16)
	tl.Insert(1<<30, walkFor(1<<30, 4<<30, paging.PageSize1G, paging.Flags{Writable: true, User: true}))
	r, ok := tl.Lookup(1<<30 + 123456789)
	if !ok {
		t.Fatal("1G entry did not cover offset")
	}
	if want := uint64(4<<30 + 123456789); r.Phys != want {
		t.Errorf("Phys = %#x, want %#x", r.Phys, want)
	}
}

func TestRemapRegister(t *testing.T) {
	// The paper's Fig. 3 example: local DDR at 0x80000000 exposed at host
	// 0xA0000000 → delta 0x20000000.
	tl := New("nxp-d-tlb", 16)
	tl.SetRemap(Remap{HostBase: 0xA000_0000, Size: 4 << 20, Delta: 0x2000_0000})
	tl.Insert(0x4_0000_0000, walkFor(0x4_0000_0000, 0xA000_0000, paging.PageSize4K, paging.Flags{Writable: true}))
	r, ok := tl.Lookup(0x4_0000_0010)
	if !ok {
		t.Fatal("miss")
	}
	if r.Phys != 0x8000_0010 {
		t.Errorf("remapped phys = %#x, want 0x80000010", r.Phys)
	}
	// Addresses outside the window pass through.
	tl.Insert(0x5_0000_0000, walkFor(0x5_0000_0000, 0x1000, paging.PageSize4K, paging.Flags{}))
	r, _ = tl.Lookup(0x5_0000_0000)
	if r.Phys != 0x1000 {
		t.Errorf("non-window phys = %#x", r.Phys)
	}
	if !tl.RemapReg().Active() {
		t.Error("remap register reads back inactive")
	}
}

func TestHolesBypassTranslation(t *testing.T) {
	tl := New("nxp-d-tlb", 16)
	tl.AddHole(Hole{VABase: 0xFFFF_8000_0000_0000, Size: 1 << 20, PhysBase: 0x8100_0000})
	r, ok := tl.Lookup(0xFFFF_8000_0000_0040)
	if !ok || r.Phys != 0x8100_0040 {
		t.Errorf("hole lookup = %+v, %v", r, ok)
	}
	// Holes survive a flush; entries don't.
	tl.Insert(0x1000, walkFor(0x1000, 0x2000, paging.PageSize4K, paging.Flags{}))
	tl.Flush()
	if _, ok := tl.Lookup(0x1000); ok {
		t.Error("entry survived flush")
	}
	if _, ok := tl.Lookup(0xFFFF_8000_0000_0040); !ok {
		t.Error("hole did not survive flush")
	}
}

func TestFlushPage(t *testing.T) {
	tl := New("d-tlb", 16)
	tl.Insert(0x1000, walkFor(0x1000, 0xA000, paging.PageSize4K, paging.Flags{}))
	tl.Insert(0x2000, walkFor(0x2000, 0xB000, paging.PageSize4K, paging.Flags{}))
	tl.FlushPage(0x1FFF)
	if _, ok := tl.Lookup(0x1000); ok {
		t.Error("FlushPage missed target")
	}
	if _, ok := tl.Lookup(0x2000); !ok {
		t.Error("FlushPage dropped innocent entry")
	}
}

func TestFlagsPreserved(t *testing.T) {
	tl := New("i-tlb", 16)
	tl.Insert(0x7000, walkFor(0x7000, 0x8000, paging.PageSize4K, paging.Flags{NX: true, User: true}))
	r, _ := tl.Lookup(0x7000)
	if !r.Flags.NX || !r.Flags.User || r.Flags.Writable {
		t.Errorf("flags = %+v", r.Flags)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 accepted")
		}
	}()
	New("bad", 0)
}

func TestCoversAtAddressSpaceTop(t *testing.T) {
	// Regression: a page ending exactly at 2^64 used to compute
	// VABase+PageSize, which wraps to 0 and makes the entry cover nothing.
	top := ^uint64(0)
	base := top &^ (paging.PageSize4K - 1)
	e := Entry{VABase: base, PageSize: paging.PageSize4K, PhysBase: 0x9000}
	if !e.covers(top) {
		t.Errorf("entry [%#x, 2^64) does not cover %#x", base, top)
	}
	if !e.covers(base) {
		t.Errorf("entry [%#x, 2^64) does not cover its own base", base)
	}
	if e.covers(base - 1) {
		t.Errorf("entry [%#x, 2^64) covers %#x below it", base, base-1)
	}
	if e.covers(0) {
		t.Error("top page covers va 0 (wraparound)")
	}
}

func TestLookupHitAtAddressSpaceTop(t *testing.T) {
	top := ^uint64(0)
	base := top &^ (paging.PageSize4K - 1)
	tl := New("d-tlb", 4)
	tl.Insert(base, walkFor(base, 0x9000, paging.PageSize4K, paging.Flags{Writable: true}))
	r, ok := tl.Lookup(top)
	if !ok || r.Phys != 0x9000+paging.PageSize4K-1 {
		t.Errorf("lookup(%#x) = %+v, %v", top, r, ok)
	}
	if _, ok := tl.Peek(top); !ok {
		t.Errorf("peek(%#x) missed", top)
	}
	// FlushPage on the top page must drop the entry, not skip it.
	tl.FlushPage(top)
	if tl.Len() != 0 {
		t.Errorf("entry survived shootdown at address-space top, len = %d", tl.Len())
	}
}

func TestRemapAtAddressSpaceTop(t *testing.T) {
	// A remap window touching the top of the physical address space:
	// HostBase+Size wraps to 0, which used to deactivate the window.
	base := ^uint64(0) - 0xFFF
	r := Remap{HostBase: base, Size: 0x1000, Delta: base - 0x4000}
	if got := r.Apply(base + 0x10); got != 0x4010 {
		t.Errorf("Apply(%#x) = %#x, want 0x4010", base+0x10, got)
	}
	if got := r.Apply(base - 1); got != base-1 {
		t.Errorf("Apply below window rewrote to %#x", got)
	}
	tl := New("n-dtlb", 4)
	tl.AddRemap(r)
	if got := tl.applyRemap(^uint64(0)); got != 0x4FFF {
		t.Errorf("applyRemap(top) = %#x, want 0x4FFF", got)
	}
	if got := tl.applyRemap(0); got != 0 {
		t.Errorf("applyRemap(0) = %#x, wraparound match", got)
	}
}

func TestHoleAtAddressSpaceTop(t *testing.T) {
	base := ^uint64(0) - 0xFFF
	tl := New("n-dtlb", 4)
	tl.AddHole(Hole{VABase: base, Size: 0x1000, PhysBase: 0x2000})
	r, ok := tl.Lookup(^uint64(0))
	if !ok || r.Phys != 0x2FFF {
		t.Errorf("hole lookup at top = %+v, %v", r, ok)
	}
	if _, ok := tl.Lookup(0); ok {
		t.Error("hole at top matched va 0 (wraparound)")
	}
	if _, ok := tl.Peek(^uint64(0)); !ok {
		t.Error("peek missed hole at top")
	}
}

func TestSpanWholeHugePage(t *testing.T) {
	for _, size := range []uint64{paging.PageSize2M, paging.PageSize1G} {
		tl := New("d-tlb", 4)
		va := uint64(1<<30) + 3*paging.PageSize4K + 8
		r := tl.Insert(va, walkFor(va, 4<<30, size, paging.Flags{Writable: true}))
		if r.Span != size {
			t.Errorf("size %#x: Insert Span = %#x, want the whole page", size, r.Span)
		}
		if r, _ := tl.Lookup(1<<30 + size - 1); r.Span != size {
			t.Errorf("size %#x: Lookup Span at the page's last byte = %#x, want %#x", size, r.Span, size)
		}
		if r, _ := tl.Peek(va); r.Span != 0 {
			t.Errorf("size %#x: Peek Span = %#x, want 0", size, r.Span)
		}
		if r := tl.ResultFor(va, walkFor(va, 4<<30, size, paging.Flags{})); r.Span != 0 {
			t.Errorf("size %#x: ResultFor Span = %#x, want 0", size, r.Span)
		}
	}
	// A 4 KiB entry spans its own page.
	tl := New("d-tlb", 4)
	if r := tl.Insert(0x1234, walkFor(0x1234, 0x9000, paging.PageSize4K, paging.Flags{})); r.Span != paging.PageSize4K {
		t.Errorf("4 KiB entry Span = %#x", r.Span)
	}
}

func TestSpanHoleInsideHugePage(t *testing.T) {
	const page = uint64(1 << 30)
	tl := New("n-dtlb", 4)
	tl.AddHole(Hole{VABase: page + 16*paging.PageSize4K, Size: 2 * paging.PageSize4K, PhysBase: 0x8100_0000})
	tl.Insert(page, walkFor(page, 4<<30, paging.PageSize2M, paging.Flags{Writable: true}))
	for _, c := range []struct {
		va   uint64
		span uint64
	}{
		{page, paging.PageSize4K},                            // frame clear of the hole
		{page + 15*paging.PageSize4K + 8, paging.PageSize4K}, // frame just below it
		{page + 18*paging.PageSize4K, paging.PageSize4K},     // frame just above it
		{page + 16*paging.PageSize4K, 0},                     // inside: the hole answers
	} {
		r, ok := tl.Lookup(c.va)
		if !ok || r.Span != c.span {
			t.Errorf("Lookup(%#x) Span = %#x (ok %v), want %#x", c.va, r.Span, ok, c.span)
		}
	}
	// A hole elsewhere leaves the whole page linear.
	tl = New("n-dtlb", 4)
	tl.AddHole(Hole{VABase: page + paging.PageSize2M, Size: paging.PageSize4K, PhysBase: 0x8100_0000})
	if r := tl.Insert(page, walkFor(page, 4<<30, paging.PageSize2M, paging.Flags{})); r.Span != paging.PageSize2M {
		t.Errorf("hole past the page's end: Span = %#x, want the whole page", r.Span)
	}
}

func TestSpanRemapEdgeInsideHugePage(t *testing.T) {
	const va, raw = uint64(1 << 30), uint64(0xA000_0000)
	// A BAR window that starts 1 MiB into the page's raw range: frames on
	// either side of the edge are linear, the page is not.
	tl := New("n-dtlb", 4)
	tl.SetRemap(Remap{HostBase: raw + 1<<20, Size: 4 << 20, Delta: 0x2000_0000})
	tl.Insert(va, walkFor(va, raw, paging.PageSize2M, paging.Flags{Writable: true}))
	for _, c := range []struct {
		off, phys uint64
	}{
		{0x10, raw + 0x10},
		{1<<20 - 8, raw + 1<<20 - 8},
		{1 << 20, raw + 1<<20 - 0x2000_0000},
		{1<<20 + 0x1008, raw + 1<<20 + 0x1008 - 0x2000_0000},
	} {
		r, ok := tl.Lookup(va + c.off)
		if !ok || r.Span != paging.PageSize4K || r.Phys != c.phys {
			t.Errorf("Lookup(+%#x) = Phys %#x Span %#x (ok %v), want Phys %#x Span 4 KiB", c.off, r.Phys, r.Span, ok, c.phys)
		}
	}
	// A window containing the whole raw page keeps the page's span.
	tl = New("n-dtlb", 4)
	tl.SetRemap(Remap{HostBase: raw, Size: 4 << 20, Delta: 0x2000_0000})
	if r := tl.Insert(va, walkFor(va, raw, paging.PageSize2M, paging.Flags{})); r.Span != paging.PageSize2M || r.Phys != raw-0x2000_0000 {
		t.Errorf("contained page: Span %#x Phys %#x", r.Span, r.Phys)
	}
	// A window smaller than a frame, strictly inside one: both ends of
	// the frame pass through unshifted, but its middle does not.
	tl = New("n-dtlb", 4)
	tl.SetRemap(Remap{HostBase: raw + 0x800, Size: 0x100, Delta: 0x2000_0000})
	if r := tl.Insert(va, walkFor(va, raw, paging.PageSize4K, paging.Flags{})); r.Span != 0 {
		t.Errorf("sub-frame window: Span = %#x, want 0", r.Span)
	}
}

func TestSpanAtAddressSpaceTop(t *testing.T) {
	// A huge page ending at 2^64 in both address spaces, with a remap
	// window and a hole touching the top: none of the range arithmetic
	// may wrap.
	top := ^uint64(0)
	base := top &^ (paging.PageSize2M - 1)
	tl := New("n-dtlb", 4)
	if r := tl.Insert(top, walkFor(top, top, paging.PageSize2M, paging.Flags{})); r.Span != paging.PageSize2M || r.Phys != top {
		t.Errorf("top page: Span %#x Phys %#x", r.Span, r.Phys)
	}

	tl = New("n-dtlb", 4)
	tl.AddRemap(Remap{HostBase: base, Size: paging.PageSize2M, Delta: base - 0x4000_0000})
	if r := tl.Insert(top, walkFor(top, top, paging.PageSize2M, paging.Flags{})); r.Span != paging.PageSize2M || r.Phys != 0x4000_0000+paging.PageSize2M-1 {
		t.Errorf("top page in a top window: Span %#x Phys %#x", r.Span, r.Phys)
	}

	tl = New("n-dtlb", 4)
	tl.AddRemap(Remap{HostBase: top - 0xFFF, Size: 0x1000, Delta: 0x10_0000})
	tl.Insert(base, walkFor(base, base, paging.PageSize2M, paging.Flags{}))
	if r, _ := tl.Lookup(base); r.Span != paging.PageSize4K {
		t.Errorf("page with a window on its top frame: Span at base = %#x, want 4 KiB", r.Span)
	}
	if r, _ := tl.Lookup(top); r.Span != paging.PageSize4K || r.Phys != top-0x10_0000 {
		t.Errorf("top frame inside the window: Span %#x Phys %#x", r.Span, r.Phys)
	}

	tl = New("n-dtlb", 4)
	tl.AddHole(Hole{VABase: top - 0xFFF, Size: 0x1000, PhysBase: 0x2000})
	tl.Insert(base, walkFor(base, 0x4000_0000, paging.PageSize2M, paging.Flags{}))
	if r, _ := tl.Lookup(top - 0x1000); r.Span != paging.PageSize4K {
		t.Errorf("frame below a top hole: Span = %#x, want 4 KiB", r.Span)
	}
	if r, _ := tl.Lookup(top); r.Span != 0 || r.Phys != 0x2FFF {
		t.Errorf("top hole: Span %#x Phys %#x", r.Span, r.Phys)
	}
}
