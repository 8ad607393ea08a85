package mmu

import (
	"errors"
	"testing"

	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// benchMMU maps one 4K page and returns an MMU over it, matching the
// NxP configuration (small TLB, cross-PCIe walk-read cost).
func benchMMU(tb testing.TB) *MMU {
	tb.Helper()
	tables := newTables(tb)
	if err := tables.Map(0x1000, 0x8000, paging.PageSize4K, paging.Flags{Writable: true}); err != nil {
		tb.Fatal(err)
	}
	return New("bench-mmu", tlb.New("bench-tlb", 16), tables,
		func(uint64) sim.Duration { return 800 * sim.Nanosecond }, 50*sim.Nanosecond)
}

// BenchmarkTranslateHit measures the steady-state translation cost the
// core's fetch path pays on every step. "mru" repeats one address, the
// last-translation memo; "alternating" steps through the page 8 bytes at
// a time, which still stays within the memo because the memo answers any
// address inside the remembered result's Span (here the whole 4 KiB
// page), not just the exact address.
func BenchmarkTranslateHit(b *testing.B) {
	run := func(b *testing.B, stride uint64) {
		m := benchMMU(b)
		env := sim.NewEnv()
		var terr error
		env.Spawn("bench", func(p *sim.Proc) {
			if _, terr = m.Translate(p, 0x1000); terr != nil {
				return
			}
			b.ReportAllocs()
			b.ResetTimer()
			va := uint64(0x1000)
			for i := 0; i < b.N; i++ {
				if _, terr = m.Translate(p, va); terr != nil {
					return
				}
				va = 0x1000 + (va+stride)&0xfff
			}
			b.StopTimer()
		})
		env.Run()
		if terr != nil {
			b.Fatal(terr)
		}
	}
	b.Run("mru", func(b *testing.B) { run(b, 0) })
	b.Run("alternating", func(b *testing.B) { run(b, 8) })
}

// TestTranslateHitZeroAllocs pins the fast path's allocation contract.
func TestTranslateHitZeroAllocs(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set: slow path makes no allocation promise")
	}
	m := benchMMU(t)
	env := sim.NewEnv()
	avg := -1.0
	env.Spawn("alloc", func(p *sim.Proc) {
		if _, err := m.Translate(p, 0x1000); err != nil {
			t.Error(err)
			return
		}
		avg = testing.AllocsPerRun(200, func() {
			if _, err := m.Translate(p, 0x1008); err != nil {
				t.Error(err)
			}
		})
	})
	env.Run()
	if avg != 0 {
		t.Errorf("%v allocs per warm Translate, want 0", avg)
	}
}

// TestFailedWalkChargesActualReadAddresses pins the costing of a walk
// that dead-ends partway down: the MMU must charge the walk-read cost
// function with the table-entry addresses the walk actually touched,
// not a synthetic address. This matters for the NxP MMU, whose reads
// cross PCIe into host DRAM — the cost model is address-dependent.
func TestFailedWalkChargesActualReadAddresses(t *testing.T) {
	tables := newTables(t)
	// Mapping 0x1000 materializes all four table levels for the low 2M
	// region, so walking the unmapped 0x2000 reads the same four entries
	// and dead-ends at the leaf level.
	if err := tables.Map(0x1000, 0x8000, paging.PageSize4K, paging.Flags{}); err != nil {
		t.Fatal(err)
	}
	// Address-dependent cost: distinct table pages charge distinctly.
	readCost := func(pa uint64) sim.Duration {
		return 100*sim.Nanosecond + sim.Duration(pa>>12)*sim.Nanosecond
	}
	perMiss := 50 * sim.Nanosecond
	m := New("nxp-mmu", tlb.New("tlb", 16), tables, readCost, perMiss)

	// Oracle: the partial walk's actual read addresses. Walk returns them
	// alongside NotMappedError precisely so costing can follow them.
	w, werr := tables.Walk(0x2000)
	var nm *paging.NotMappedError
	if !errors.As(werr, &nm) {
		t.Fatalf("walk err = %v, want NotMappedError", werr)
	}
	if len(w.Reads) != nm.Level+1 {
		t.Fatalf("partial walk has %d reads, want %d (level %d miss)", len(w.Reads), nm.Level+1, nm.Level)
	}
	want := perMiss
	for _, pa := range w.Reads {
		want += readCost(pa)
	}
	// The bug this guards against: charging readCost(0) for every level.
	synthetic := perMiss + sim.Duration(nm.Level+1)*readCost(0)
	if want == synthetic {
		t.Fatal("cost oracle cannot distinguish real from synthetic addresses; pick a different cost fn")
	}

	env := sim.NewEnv()
	var got sim.Duration
	env.Spawn("core", func(p *sim.Proc) {
		t0 := p.Now()
		_, err := m.Translate(p, 0x2000)
		if !errors.As(err, &nm) {
			t.Errorf("translate err = %v, want NotMappedError", err)
		}
		got = p.Now().Sub(t0)
	})
	env.Run()

	if got != want {
		t.Errorf("failed walk charged %v, want %v (perMiss + cost of each read address)", got, want)
	}
	if got == synthetic {
		t.Error("failed walk charged the synthetic readCost(0) total: costing ignores walk addresses")
	}
}
