package cpu_test

import (
	"testing"

	"flick/internal/asm"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/multibin"
	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// benchRig is the hot-loop measurement harness: one core of the chosen
// ISA spinning a counted arithmetic loop over identity-mapped memory —
// the steady state every workload's compute phase reduces to.
type benchRig struct {
	env    *sim.Env
	core   *cpu.Core
	ctx    *cpu.Context
	phys   *mem.AddressSpace
	tables *paging.Tables
}

// benchSrc returns a never-terminating two-instruction loop for the ISA
// (a0 counts up toward a1, which the harness sets to 2^64-1). The linker
// requires a host-text main, so the loop lives in its own function and
// the harness enters at "spin" directly.
func benchSrc(is isa.ISA) string {
	name := is.String()
	return `
.func main isa=host
    ret
.endfunc
.func spin isa=` + name + `
loop:
    addi a0, a0, 1
    bne  a0, a1, loop
    ret
.endfunc
`
}

// memSrc returns a never-terminating loop for the ISA that stores, loads,
// pushes and pops every pass, over the writable block "scratch" (the
// harness points sp at its end).
func memSrc(is isa.ISA) string {
	return `
.func main isa=host
    ret
.endfunc
.data scratch isa=host align=64
    .zero 64
.enddata
.func spin isa=` + is.String() + `
    la   t0, scratch
loop:
    st8  a0, [t0+0]
    ld8  t1, [t0+0]
    st4  a0, [t0+8]
    ld4  t1, [t0+8]
    st2  a0, [t0+12]
    ld2  t1, [t0+12]
    st1  a0, [t0+14]
    ld1  t1, [t0+14]
    push a0
    pop  t1
    addi a0, a0, 1
    bne  a0, a1, loop
    ret
.endfunc
`
}

// buildBenchRig assembles src (benchSrc or memSrc) and wires the minimal
// platform around one core entering at "spin": identity-mapped pages,
// 64-entry TLBs, a 10 ns walk cost, an I-cache with a fill cost, and
// tagged execution for the DSP (which has no NX polarity of its own).
// When src defines "scratch", sp starts at its end.
func buildBenchRig(tb testing.TB, is isa.ISA, src string) *benchRig {
	tb.Helper()
	obj, err := asm.Assemble("bench.fasm", src)
	if err != nil {
		tb.Fatal(err)
	}
	im, err := multibin.Link(multibin.LinkConfig{}, obj)
	if err != nil {
		tb.Fatal(err)
	}

	env := sim.NewEnv()
	phys := mem.NewAddressSpace("host")
	ram := mem.NewRAM("dram", 64<<20)
	if err := phys.Map(0, ram); err != nil {
		tb.Fatal(err)
	}
	alloc, err := paging.NewFrameAlloc(1<<20, 16<<20)
	if err != nil {
		tb.Fatal(err)
	}
	tables, err := paging.New(phys, alloc)
	if err != nil {
		tb.Fatal(err)
	}

	// NX polarity covers the host and the default board family; any other
	// backend runs tagged, as it would on a three-plus-ISA platform.
	tag := uint8(0)
	if is != isa.ISAHost && is != isa.ISANxP {
		tag = uint8(is) + 1
	}
	for _, seg := range im.Segments {
		ram.Store().WriteAt(seg.VA, seg.Bytes)
		n := (uint64(len(seg.Bytes)) + paging.PageSize4K - 1) &^ (paging.PageSize4K - 1)
		nx := !(seg.Kind == multibin.SecText && seg.ISA == isa.ISAHost)
		flags := paging.Flags{Writable: seg.Kind == multibin.SecData, User: true, NX: nx}
		if seg.Kind == multibin.SecText {
			flags.ISATag = tag
		}
		if err := tables.MapRange(seg.VA, seg.VA, n, paging.PageSize4K, flags); err != nil {
			tb.Fatal(err)
		}
	}

	mkMMU := func(name string) *mmu.MMU {
		return mmu.New(name, tlb.New(name, 64), tables,
			func(uint64) sim.Duration { return 10 * sim.Nanosecond }, 0)
	}
	core := cpu.New(cpu.Config{
		Name: "bench0", ISA: is,
		IMMU: mkMMU("bench-itlb"), DMMU: mkMMU("bench-dtlb"),
		Phys: phys, CycleTime: sim.Nanosecond,
		ExecNX:      is == isa.ISANxP,
		ISATag:      tag,
		FetchCost:   func(uint64) sim.Duration { return 5 * sim.Nanosecond },
		ICacheLines: 64,
	})

	ctx := &cpu.Context{PC: im.Symbols["spin"]}
	ctx.SetReg(isa.A1, ^uint64(0))
	if va, ok := im.Symbols["scratch"]; ok {
		ctx.SetReg(isa.SP, va+64)
	}
	core.SetContext(ctx)
	return &benchRig{env: env, core: core, ctx: ctx, phys: phys, tables: tables}
}

// hugeDataVA is where mapHugeData puts its page, identity-mapped.
const hugeDataVA = uint64(1 << 30)

// mapHugeData backs [hugeDataVA, +1 GiB) with a sparse RAM region mapped
// by one writable 1 GiB page, as Table IV maps its graph.
func (r *benchRig) mapHugeData(tb testing.TB) {
	tb.Helper()
	if err := r.phys.Map(hugeDataVA, mem.NewRAM("huge", paging.PageSize1G)); err != nil {
		tb.Fatal(err)
	}
	if err := r.tables.Map(hugeDataVA, hugeDataVA, paging.PageSize1G, paging.Flags{Writable: true, User: true, NX: true}); err != nil {
		tb.Fatal(err)
	}
}

// benchCoreStep measures steady-state per-instruction wall-clock for one
// ISA. One Step may retire a whole chained superblock run, so the loop
// counts retired instructions rather than Step calls: ns/op stays
// per-simulated-instruction and comparable across the interpreter's
// generations (with FLICKSIM_NOPREDECODE=1 each Step retires exactly one
// instruction and this reduces to the old Step-counting loop).
func benchCoreStep(b *testing.B, is isa.ISA) {
	rig := buildBenchRig(b, is, benchSrc(is))
	var stepErr error
	rig.env.Spawn("bench", func(p *sim.Proc) {
		// Warm the TLB, I-cache, and superblock cache out of the timed
		// region, then measure the steady state.
		for i := 0; i < 64 && stepErr == nil; i++ {
			stepErr = rig.core.Step(p)
		}
		start, _ := rig.core.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for stepErr == nil {
			if in, _ := rig.core.Stats(); in-start >= uint64(b.N) {
				break
			}
			stepErr = rig.core.Step(p)
		}
		b.StopTimer()
	})
	rig.env.Run()
	if stepErr != nil {
		b.Fatal(stepErr)
	}
}

func BenchmarkCoreStep(b *testing.B) {
	for _, be := range isa.All() {
		be := be
		b.Run(be.Name(), func(b *testing.B) { benchCoreStep(b, be.ISA()) })
	}
}

// TestStepZeroAllocs pins the tentpole's allocation contract: the
// steady-state Step path — predecode hit, MRU translation, in-place
// sleep — must not allocate at all, whether the block computes or loads,
// stores, pushes and pops (an access buffer must never escape through
// the bus).
func TestStepZeroAllocs(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set: slow path makes no allocation promise")
	}
	for _, be := range isa.All() {
		is := be.ISA()
		for _, loop := range []struct{ name, src string }{{"ALU", benchSrc(is)}, {"load/store", memSrc(is)}} {
			rig := buildBenchRig(t, is, loop.src)
			var stepErr error
			avg := -1.0
			rig.env.Spawn("alloc", func(p *sim.Proc) {
				for i := 0; i < 64 && stepErr == nil; i++ {
					stepErr = rig.core.Step(p)
				}
				if stepErr != nil {
					return
				}
				avg = testing.AllocsPerRun(200, func() {
					if err := rig.core.Step(p); err != nil {
						stepErr = err
					}
				})
			})
			rig.env.Run()
			if stepErr != nil {
				t.Fatalf("%v %s: step: %v", is, loop.name, stepErr)
			}
			if avg != 0 {
				t.Errorf("%v %s: %v allocs per steady-state Step, want 0", is, loop.name, avg)
			}
		}
	}
}

// TestVirtWordZeroAllocs extends the contract to the natives' data path:
// a ReadU64Virt and WriteU64Virt pair must not allocate, on a 4 KiB page
// and on a frame of a 1 GiB page other than the one its first access
// resolved.
func TestVirtWordZeroAllocs(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set: slow path makes no allocation promise")
	}
	rig := buildBenchRig(t, isa.ISAHost, memSrc(isa.ISAHost))
	rig.mapHugeData(t)
	for _, c := range []struct {
		name      string
		first, va uint64
	}{
		{"4KiB page", rig.ctx.Reg(isa.SP) - 64, rig.ctx.Reg(isa.SP) - 64}, // the scratch block
		{"huge page", hugeDataVA, hugeDataVA + paging.PageSize4K + 8},
	} {
		var err error
		avg := -1.0
		rig.env.Spawn("alloc", func(p *sim.Proc) {
			if _, err = rig.core.ReadU64Virt(p, c.first); err != nil {
				return
			}
			avg = testing.AllocsPerRun(200, func() {
				var v uint64
				if v, err = rig.core.ReadU64Virt(p, c.va); err == nil {
					err = rig.core.WriteU64Virt(p, c.va, v+1)
				}
			})
		})
		rig.env.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if avg != 0 {
			t.Errorf("%s: %v allocs per ReadU64Virt+WriteU64Virt, want 0", c.name, avg)
		}
	}
}

// virtSink keeps BenchmarkVirtAccess's reads live.
var virtSink uint64

// BenchmarkVirtAccess measures one virtual data access as the natives
// issue it: a ReadU64Virt on a 1 GiB page, each read 4 KiB + 8 bytes past
// the last, so consecutive reads land on different 4 KiB frames of the
// page, as Table IV's BFS kernel does across its graph. The reads cycle
// over 64 written granules. It fails if any read walks the page tables
// or if the MMU's translations differ from the reads issued.
func BenchmarkVirtAccess(b *testing.B) {
	const (
		stride = paging.PageSize4K + 8
		window = 64 * paging.PageSize4K // a power of two
	)
	rig := buildBenchRig(b, isa.ISAHost, benchSrc(isa.ISAHost))
	rig.mapHugeData(b)
	dmmu := rig.core.DMMU()
	reg := sim.NewMetrics()
	dmmu.Register(reg)
	translates := "mmu." + dmmu.Name + ".translates"
	var err error
	var walks, reads, trans uint64
	rig.env.Spawn("bench", func(p *sim.Proc) {
		for off := uint64(0); off < window; off += paging.PageSize4K {
			if err = rig.core.WriteU64Virt(p, hugeDataVA+off, off); err != nil {
				return
			}
		}
		walks, _ = dmmu.Stats()
		trans = reg.Snapshot().Counter(translates)
		b.ReportAllocs()
		b.ResetTimer()
		off := uint64(0)
		for i := 0; i < b.N; i++ {
			if virtSink, err = rig.core.ReadU64Virt(p, hugeDataVA+off); err != nil {
				return
			}
			off = (off + stride) & (window - 1)
		}
		b.StopTimer()
		reads = uint64(b.N)
	})
	rig.env.Run()
	if err != nil {
		b.Fatal(err)
	}
	if w, _ := dmmu.Stats(); w != walks {
		b.Fatalf("%d walks during the timed reads, want 0", w-walks)
	}
	if got := reg.Snapshot().Counter(translates) - trans; got != reads {
		b.Fatalf("%d translations for %d reads", got, reads)
	}
}

// TestBenchRigUsesPredecode guards the benchmark's premise: the warmed
// rig must actually be hitting the predecode cache, otherwise the
// numbers in BENCH_hotloop.json measure the wrong path.
func TestBenchRigUsesPredecode(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set")
	}
	rig := buildBenchRig(t, isa.ISAHost, benchSrc(isa.ISAHost))
	var stepErr error
	rig.env.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < 100 && stepErr == nil; i++ {
			stepErr = rig.core.Step(p)
		}
	})
	rig.env.Run()
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	hits, fills, _ := rig.core.SuperblockStats()
	if fills == 0 || hits < 90 {
		t.Errorf("predecode hits=%d fills=%d; benchmark would not measure the fast path", hits, fills)
	}
}
