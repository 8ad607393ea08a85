package mmu

import (
	"math/rand"
	"reflect"
	"testing"

	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// Virtual layout of the differential test, shared by both hierarchies a
// side switches between.
const (
	smallVA = uint64(0x10_0000)      // 16 × 4 KiB pages
	hugeVA  = uint64(0x4000_0000)    // 4 × 2 MiB pages
	gigaVA  = uint64(0x80_0000_0000) // one 1 GiB page
	holeVA  = gigaVA + 0x1000_0000   // a 64 KiB hole inside it
	barBase = uint64(0xA010_0000)    // remap window: edges inside huge pages 0 and 2
	barSize = uint64(4 << 20)        // and huge page 1 wholly inside
	unmapVA = uint64(0x7000_0000)    // never mapped
)

// memoSide is one MMU of the differential pair with the two page-table
// hierarchies it switches between and the registry its counters land in.
type memoSide struct {
	m      *MMU
	tables [2]*paging.Tables
	cur    int
	reg    *sim.Metrics
}

func newMemoSide(t *testing.T, noFast bool) *memoSide {
	t.Helper()
	s := &memoSide{reg: sim.NewMetrics()}
	for i := range s.tables {
		tb := newTables(t)
		shift := uint64(i) << 32 // the second hierarchy maps every page elsewhere
		for k := uint64(0); k < 16; k++ {
			must(t, tb.Map(smallVA+k*paging.PageSize4K, 0x20_0000+shift+k*paging.PageSize4K, paging.PageSize4K, paging.Flags{Writable: k%2 == 0}))
		}
		for k := uint64(0); k < 4; k++ {
			must(t, tb.Map(hugeVA+k*paging.PageSize2M, 0xA000_0000+shift+k*paging.PageSize2M, paging.PageSize2M, paging.Flags{Writable: true}))
		}
		must(t, tb.Map(gigaVA, 4<<30+shift, paging.PageSize1G, paging.Flags{Writable: true, User: true}))
		s.tables[i] = tb
	}
	tl := tlb.New("d-tlb", 4)
	tl.AddHole(tlb.Hole{VABase: holeVA, Size: 64 << 10, PhysBase: 0x8100_0000})
	tl.AddRemap(tlb.Remap{HostBase: barBase, Size: barSize, Delta: 0x2000_0000})
	cost := func(pa uint64) sim.Duration { return 100*sim.Nanosecond + sim.Duration(pa>>12)%7 }
	s.m = New("dmmu", tl, s.tables[0], cost, 50*sim.Nanosecond)
	s.m.noFast = noFast
	s.m.Register(s.reg)
	tl.Register(s.reg)
	return s
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// randomVA picks the next address: mostly a short hop from the previous
// one, which may cross 4 KiB frames within a huge page, else anywhere in
// a random region, the hole and the unmapped range included.
func randomVA(rng *rand.Rand, prev uint64) uint64 {
	n := func(bound uint64) uint64 { return uint64(rng.Int63n(int64(bound))) }
	if rng.Intn(10) < 7 {
		return prev + n(3*paging.PageSize4K) - paging.PageSize4K
	}
	switch rng.Intn(6) {
	case 0:
		return smallVA + n(16*paging.PageSize4K)
	case 1, 2:
		return hugeVA + n(4*paging.PageSize2M)
	case 3:
		return gigaVA + n(paging.PageSize1G)
	case 4:
		return holeVA - paging.PageSize4K + n(80<<10)
	default:
		return unmapVA + n(paging.PageSize4K)
	}
}

// TestMemoMatchesReference drives one seeded random sequence of
// translations, with Flush, FlushPage and SetTables interleaved, through
// a default MMU and a reference MMU whose memo is never armed. Every
// Result, error and charged walk time must match, and so must every
// mmu.* and tlb.* counter at the end. The sequence covers 4 KiB, 2 MiB
// and 1 GiB pages, a hole inside the 1 GiB page and a BAR remap window
// with edges inside two 2 MiB pages, and the test fails unless the memo
// answered translations on a different 4 KiB frame than the previous
// one, which only a span wider than a frame allows.
func TestMemoMatchesReference(t *testing.T) {
	def, ref := newMemoSide(t, false), newMemoSide(t, true)
	rng := rand.New(rand.NewSource(23))
	env := sim.NewEnv()
	var memo, crossFrame int
	env.Spawn("core", func(p *sim.Proc) {
		va := hugeVA
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(100); {
			case op < 2:
				def.m.TLB.Flush()
				ref.m.TLB.Flush()
				continue
			case op < 5:
				page := randomVA(rng, va)
				def.m.TLB.FlushPage(page)
				ref.m.TLB.FlushPage(page)
				continue
			case op < 6:
				for _, s := range []*memoSide{def, ref} {
					s.cur ^= 1
					s.m.SetTables(s.tables[s.cur])
				}
				continue
			}
			prev := va
			va = randomVA(rng, va)
			if _, ok := ref.m.RepeatPeek(va); ok {
				t.Fatalf("step %d: the reference MMU armed its memo", step)
			}
			if _, ok := def.m.RepeatPeek(va); ok {
				memo++
				if va>>12 != prev>>12 {
					crossFrame++
				}
			}
			t0 := p.Now()
			dr, derr := def.m.Translate(p, va)
			t1 := p.Now()
			rr, rerr := ref.m.Translate(p, va)
			t2 := p.Now()
			if dr != rr || (derr == nil) != (rerr == nil) || (derr != nil && derr.Error() != rerr.Error()) {
				t.Fatalf("step %d: Translate(%#x) = %+v, %v; reference %+v, %v", step, va, dr, derr, rr, rerr)
			}
			if t1-t0 != t2-t1 {
				t.Fatalf("step %d: Translate(%#x) charged %v; reference %v", step, va, t1-t0, t2-t1)
			}
		}
	})
	env.Run()
	dm, rm := def.reg.Snapshot(), ref.reg.Snapshot()
	if !reflect.DeepEqual(dm, rm) {
		t.Errorf("counters differ:\ndefault   %+v\nreference %+v", dm.Counters, rm.Counters)
	}
	for _, name := range []string{"mmu.dmmu.translates", "mmu.dmmu.walks", "mmu.dmmu.walk_ns", "tlb.d-tlb.hits", "tlb.d-tlb.misses"} {
		if dm.Counter(name) == 0 {
			t.Errorf("%s = 0: the sequence never exercised it", name)
		}
	}
	if crossFrame < 1000 {
		t.Errorf("memo answered %d translations, %d on another 4 KiB frame; want at least 1000 of the latter", memo, crossFrame)
	}
}
