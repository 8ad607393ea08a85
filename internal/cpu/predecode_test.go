package cpu_test

import (
	"errors"
	"fmt"
	"testing"

	"flick/internal/asm"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/multibin"
	"flick/internal/paging"
	"flick/internal/pcie"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// smcSrc pairs two same-shape host functions so self-modifying-code tests
// can overwrite f with g's bytes and observe which version executes: a
// stale predecode entry keeps returning 1 where fresh decode returns 2.
const smcSrc = `
.func main isa=host
    halt
.endfunc
.func f isa=host
    movi a0, 1
    halt
.endfunc
.func g isa=host
    movi a0, 2
    halt
.endfunc
`

// smcPatch returns f's VA and the bytes of g, sized by the symbol gap.
func smcPatch(t *testing.T, m *machine) (fVA uint64, patch []byte) {
	t.Helper()
	fVA, gVA := m.image.Symbols["f"], m.image.Symbols["g"]
	if gVA <= fVA {
		t.Fatalf("expected g (%#x) after f (%#x) in text", gVA, fVA)
	}
	patch = make([]byte, gVA-fVA)
	// Identity loading puts each segment's bytes at PA == VA.
	if err := m.phys.Read(gVA, patch); err != nil {
		t.Fatal(err)
	}
	return fVA, patch
}

// smcRun executes f on the host core from within p and returns a0.
func smcRun(m *machine, p *sim.Proc, fVA uint64) (uint64, error) {
	ctx := &cpu.Context{PC: fVA}
	ctx.SetReg(isa.SP, stackTop)
	m.host.SetContext(ctx)
	if err := m.host.Run(p, 1000); !errors.Is(err, cpu.ErrHalted) {
		return 0, fmt.Errorf("run: %v", err)
	}
	return ctx.Reg(isa.A0), nil
}

// TestPredecodeInvalidatedByLoaderWrite overwrites live code through the
// physical address space — the kernel loader's path — and checks the next
// execution decodes the new bytes. The predecode cache must notice via
// the code-generation watch; no one calls InvalidateICache here.
func TestPredecodeInvalidatedByLoaderWrite(t *testing.T) {
	m := buildMachine(t, smcSrc)
	fVA, patch := smcPatch(t, m)

	var got [3]uint64
	var runErr error
	m.env.Spawn("smc", func(p *sim.Proc) {
		for i := 0; i < 2; i++ { // second run executes from the warm cache
			if got[i], runErr = smcRun(m, p, fVA); runErr != nil {
				return
			}
		}
		if runErr = m.phys.Write(fVA, patch); runErr != nil {
			return
		}
		got[2], runErr = smcRun(m, p, fVA)
	})
	m.env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("f returned %d then %d before the write, want 1", got[0], got[1])
	}
	if got[2] != 2 {
		t.Errorf("f returned %d after the loader write, want 2 (stale predecode)", got[2])
	}
	if !sim.FastPathsDisabled() {
		hits, fills, flushes := m.host.SuperblockStats()
		if fills == 0 || hits == 0 {
			t.Errorf("predecode hits=%d fills=%d: the test never exercised the cache", hits, fills)
		}
		if flushes == 0 {
			t.Error("code write did not flush the predecode cache")
		}
	}
}

// TestPredecodeInvalidatedByDMAWrite is the same self-modification driven
// by a DMA engine instead of the loader: the burst lands through the
// destination address space's write path, so the code watch must fire.
func TestPredecodeInvalidatedByDMAWrite(t *testing.T) {
	m := buildMachine(t, smcSrc)
	fVA, patch := smcPatch(t, m)
	gVA := m.image.Symbols["g"]
	eng := pcie.NewEngine(m.env, pcie.LinkParams{
		Propagation: 100 * sim.Nanosecond, PerByte: sim.Nanosecond,
	}, 50*sim.Nanosecond)

	var before, after uint64
	var runErr error
	m.env.Spawn("smc", func(p *sim.Proc) {
		if before, runErr = smcRun(m, p, fVA); runErr != nil {
			return
		}
		done := false
		eng.Submit(pcie.Request{
			SrcSpace: m.phys, Src: gVA,
			DstSpace: m.phys, Dst: fVA,
			Size: len(patch), Tag: "smc",
			OnDone: func(at sim.Time, ok bool) { done = ok },
		})
		for i := 0; !done && i < 1000; i++ {
			p.Sleep(sim.Microsecond)
		}
		if !done {
			runErr = fmt.Errorf("dma transfer never completed")
			return
		}
		after, runErr = smcRun(m, p, fVA)
	})
	m.env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if before != 1 {
		t.Fatalf("f returned %d before the DMA write, want 1", before)
	}
	if after != 2 {
		t.Errorf("f returned %d after the DMA write, want 2 (stale predecode)", after)
	}
	if !sim.FastPathsDisabled() {
		if _, _, flushes := m.host.SuperblockStats(); flushes == 0 {
			t.Error("DMA code write did not flush the predecode cache")
		}
	}
}

// midSrc pairs two functions identical except for the amount the loop's
// MIDDLE instruction adds to a2, so mid-block invalidation tests can
// patch one instruction inside an already-chained hot block and observe
// from a2 whether the next execution decoded the new bytes (a stale block
// keeps adding 1 where fresh decode adds 2).
const midSrc = `
.func main isa=host
    halt
.endfunc
.func f isa=host
    movi a1, 4
loop:
    addi a0, a0, 1
    addi a2, a2, 1
    bne  a0, a1, loop
    halt
.endfunc
.func g isa=host
    movi a1, 4
loop:
    addi a0, a0, 1
    addi a2, a2, 2
    bne  a0, a1, loop
    halt
.endfunc
`

// midPatch locates the single instruction where f and g differ (the
// middle addi of the loop body) by decoding both in lockstep, returning
// its VA in f and g's bytes for it. Patching exactly that instruction —
// never the block head — is what makes these tests mid-block.
func midPatch(t *testing.T, m *machine) (patchVA uint64, patch []byte) {
	t.Helper()
	codec := isa.CodecFor(isa.ISAHost)
	fVA, gVA := m.image.Symbols["f"], m.image.Symbols["g"]
	fb, gb := make([]byte, 64), make([]byte, 64)
	if err := m.phys.Read(fVA, fb); err != nil {
		t.Fatal(err)
	}
	if err := m.phys.Read(gVA, gb); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 64; {
		fi, fn, err := codec.Decode(fb[off:])
		if err != nil {
			break
		}
		gi, gn, err := codec.Decode(gb[off:])
		if err != nil {
			break
		}
		if fi != gi {
			if fn != gn {
				t.Fatalf("differing instruction re-encodes at different length (%d vs %d); pick closer immediates", fn, gn)
			}
			if off == 0 {
				t.Fatal("f and g differ at their first instruction; patch would hit the block head")
			}
			return fVA + uint64(off), gb[off : off+gn]
		}
		off += fn
	}
	t.Fatal("f and g decode identically; nothing to patch")
	return 0, nil
}

// midRun executes f and returns (a0, a2).
func midRun(m *machine, p *sim.Proc, fVA uint64) (uint64, uint64, error) {
	ctx := &cpu.Context{PC: fVA}
	ctx.SetReg(isa.SP, stackTop)
	m.host.SetContext(ctx)
	if err := m.host.Run(p, 1000); !errors.Is(err, cpu.ErrHalted) {
		return 0, 0, fmt.Errorf("run: %v", err)
	}
	return ctx.Reg(isa.A0), ctx.Reg(isa.A2), nil
}

// TestMidBlockInvalidationLoaderWrite drives the loop hot — the whole
// body is one cached superblock whose back edge chains straight into the
// next iteration — then overwrites the block's MIDDLE instruction through
// the loader's physical write path. The next execution must drop the
// block and decode fresh bytes: a2 doubles its step. This is the
// block-granularity sharpening of TestPredecodeInvalidatedByLoaderWrite,
// which patches whole functions and so also covers block heads.
func TestMidBlockInvalidationLoaderWrite(t *testing.T) {
	m := buildMachine(t, midSrc)
	fVA := m.image.Symbols["f"]
	patchVA, patch := midPatch(t, m)

	var a2 [3]uint64
	var runErr error
	m.env.Spawn("mid", func(p *sim.Proc) {
		for i := 0; i < 2; i++ { // second run executes the chained hot block
			if _, a2[i], runErr = midRun(m, p, fVA); runErr != nil {
				return
			}
		}
		if runErr = m.phys.Write(patchVA, patch); runErr != nil {
			return
		}
		_, a2[2], runErr = midRun(m, p, fVA)
	})
	m.env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if a2[0] != 4 || a2[1] != 4 {
		t.Fatalf("loop added %d then %d to a2 before the write, want 4", a2[0], a2[1])
	}
	if a2[2] != 8 {
		t.Errorf("loop added %d to a2 after the mid-block write, want 8 (stale superblock)", a2[2])
	}
	if !sim.FastPathsDisabled() {
		hits, fills, flushes := m.host.SuperblockStats()
		if fills == 0 || hits == 0 {
			t.Errorf("superblock hits=%d fills=%d: the loop never executed from the cache", hits, fills)
		}
		if flushes == 0 {
			t.Error("mid-block code write did not flush the superblock cache")
		}
	}
}

// TestMidBlockInvalidationDMAWrite is the same mid-block patch landed by
// a DMA engine: the burst writes through the destination address space,
// so the code watch must drop the chained block before its next run.
func TestMidBlockInvalidationDMAWrite(t *testing.T) {
	m := buildMachine(t, midSrc)
	fVA, gVA := m.image.Symbols["f"], m.image.Symbols["g"]
	patchVA, patch := midPatch(t, m)
	eng := pcie.NewEngine(m.env, pcie.LinkParams{
		Propagation: 100 * sim.Nanosecond, PerByte: sim.Nanosecond,
	}, 50*sim.Nanosecond)

	var before, after uint64
	var runErr error
	m.env.Spawn("mid", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, before, runErr = midRun(m, p, fVA); runErr != nil {
				return
			}
		}
		done := false
		eng.Submit(pcie.Request{
			SrcSpace: m.phys, Src: gVA + (patchVA - fVA),
			DstSpace: m.phys, Dst: patchVA,
			Size: len(patch), Tag: "mid",
			OnDone: func(at sim.Time, ok bool) { done = ok },
		})
		for i := 0; !done && i < 1000; i++ {
			p.Sleep(sim.Microsecond)
		}
		if !done {
			runErr = fmt.Errorf("dma transfer never completed")
			return
		}
		_, after, runErr = midRun(m, p, fVA)
	})
	m.env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if before != 4 {
		t.Fatalf("loop added %d to a2 before the DMA write, want 4", before)
	}
	if after != 8 {
		t.Errorf("loop added %d to a2 after the mid-block DMA write, want 8 (stale superblock)", after)
	}
	if !sim.FastPathsDisabled() {
		if _, _, flushes := m.host.SuperblockStats(); flushes == 0 {
			t.Error("mid-block DMA write did not flush the superblock cache")
		}
	}
}

// TestShootdownDropsChainedBlock pins the explicit-drop path at block
// granularity: InvalidateSuperblocks — what the TLB shootdown fan-out and
// InvalidateICache call on every core (reach across boards 1..3 is
// covered by the platform suite) — must drop an already-chained hot
// block, forcing a rebuild on the next execution.
func TestShootdownDropsChainedBlock(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set")
	}
	m := buildMachine(t, midSrc)
	fVA := m.image.Symbols["f"]

	var runErr error
	m.env.Spawn("drop", func(p *sim.Proc) {
		for i := 0; i < 2; i++ { // chain the loop block hot
			if _, _, runErr = midRun(m, p, fVA); runErr != nil {
				return
			}
		}
		_, fillsBefore, flushesBefore := m.host.SuperblockStats()
		m.host.InvalidateSuperblocks()
		if _, _, flushes := m.host.SuperblockStats(); flushes != flushesBefore+1 {
			t.Errorf("flushes %d -> %d after InvalidateSuperblocks, want +1", flushesBefore, flushes)
		}
		var a2 uint64
		if _, a2, runErr = midRun(m, p, fVA); runErr != nil {
			return
		}
		if a2 != 4 {
			t.Errorf("loop added %d to a2 after the drop, want 4", a2)
		}
		if _, fills, _ := m.host.SuperblockStats(); fills <= fillsBefore {
			t.Errorf("fills %d -> %d after the drop; the chained block was not rebuilt", fillsBefore, fills)
		}
	})
	m.env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestCmpDenseLoopHitRate pins the index spread for the 2-byte-aligned
// compressed codec: a dense cmp loop must run almost entirely out of the
// superblock cache — neighboring compressed instructions must not alias
// or thrash each other's slots (the index divides out the alignment so
// 2-byte-aligned heads spread over all slots; the pa tag catches the
// rest) — and content watching must see no writes.
func TestCmpDenseLoopHitRate(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set")
	}
	rig := buildBenchRig(t, isa.ISACmp, benchSrc(isa.ISACmp))
	var stepErr error
	rig.env.Spawn("dense", func(p *sim.Proc) {
		start, _ := rig.core.Stats()
		for stepErr == nil {
			if in, _ := rig.core.Stats(); in-start >= 4096 {
				return
			}
			stepErr = rig.core.Step(p)
		}
	})
	rig.env.Run()
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	hits, fills, flushes := rig.core.SuperblockStats()
	if fills == 0 {
		t.Fatal("dense cmp loop never filled the superblock cache")
	}
	if rate := float64(hits) / float64(hits+fills); rate < 0.9 {
		t.Errorf("dense cmp loop hit rate %.3f (hits=%d fills=%d), want >= 0.9", rate, hits, fills)
	}
	if flushes != 0 {
		t.Errorf("%d flushes on a read-only dense loop, want 0", flushes)
	}
}

// TestPredecodePhysicallyTaggedAcrossSetTables switches page tables so
// the same virtual PC maps to a different physical page holding different
// code. A virtually-tagged cache would need an explicit flush on context
// switch; the physical tags must make the new bytes execute with no flush
// at all.
func TestPredecodePhysicallyTaggedAcrossSetTables(t *testing.T) {
	obj, err := asm.Assemble("smc.fasm", smcSrc)
	if err != nil {
		t.Fatal(err)
	}
	im, err := multibin.Link(multibin.LinkConfig{}, obj)
	if err != nil {
		t.Fatal(err)
	}

	env := sim.NewEnv()
	phys := mem.NewAddressSpace("host")
	ram := mem.NewRAM("dram", 64<<20)
	if err := phys.Map(0, ram); err != nil {
		t.Fatal(err)
	}
	newTables := func(lo, hi uint64) *paging.Tables {
		alloc, err := paging.NewFrameAlloc(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := paging.New(phys, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	tables1 := newTables(1<<20, 8<<20)
	for _, seg := range im.Segments {
		ram.Store().WriteAt(seg.VA, seg.Bytes)
		n := (uint64(len(seg.Bytes)) + paging.PageSize4K - 1) &^ (paging.PageSize4K - 1)
		if err := tables1.MapRange(seg.VA, seg.VA, n, paging.PageSize4K, paging.Flags{User: true}); err != nil {
			t.Fatal(err)
		}
	}

	fVA, gVA := im.Symbols["f"], im.Symbols["g"]
	if gVA <= fVA {
		t.Fatalf("expected g (%#x) after f (%#x) in text", gVA, fVA)
	}
	// Plant g's bytes in a distant physical page at f's page offset, and
	// build a second table set mapping f's virtual page there.
	const altPage = uint64(32 << 20)
	patch := make([]byte, gVA-fVA)
	if err := phys.Read(gVA, patch); err != nil {
		t.Fatal(err)
	}
	if err := phys.Write(altPage+(fVA&(paging.PageSize4K-1)), patch); err != nil {
		t.Fatal(err)
	}
	fPage := fVA &^ (paging.PageSize4K - 1)
	tables2 := newTables(8<<20, 16<<20)
	if err := tables2.MapRange(fPage, altPage, paging.PageSize4K, paging.PageSize4K, paging.Flags{User: true}); err != nil {
		t.Fatal(err)
	}

	mkMMU := func(name string) *mmu.MMU {
		return mmu.New(name, tlb.New(name, 64), tables1,
			func(uint64) sim.Duration { return 10 * sim.Nanosecond }, 0)
	}
	immu, dmmu := mkMMU("smc-itlb"), mkMMU("smc-dtlb")
	core := cpu.New(cpu.Config{
		Name: "smc0", ISA: isa.ISAHost,
		IMMU: immu, DMMU: dmmu,
		Phys: phys, CycleTime: sim.Nanosecond,
	})

	var got [3]uint64
	var runErr error
	run := func(p *sim.Proc, i int) bool {
		ctx := &cpu.Context{PC: fVA}
		core.SetContext(ctx)
		if err := core.Run(p, 1000); !errors.Is(err, cpu.ErrHalted) {
			runErr = fmt.Errorf("run %d: %v", i, err)
			return false
		}
		got[i] = ctx.Reg(isa.A0)
		return true
	}
	env.Spawn("smc", func(p *sim.Proc) {
		if !run(p, 0) || !run(p, 1) { // warm the cache under tables1
			return
		}
		immu.SetTables(tables2) // context switch; no explicit invalidation
		dmmu.SetTables(tables2)
		run(p, 2)
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("f returned %d then %d under tables1, want 1", got[0], got[1])
	}
	if got[2] != 2 {
		t.Errorf("f returned %d under tables2, want 2 (predecode served a stale virtual mapping)", got[2])
	}
	if !sim.FastPathsDisabled() {
		hits, fills, flushes := core.SuperblockStats()
		if fills == 0 || hits == 0 {
			t.Errorf("predecode hits=%d fills=%d: the test never exercised the cache", hits, fills)
		}
		if flushes != 0 {
			t.Errorf("%d predecode flushes across SetTables; physical tagging should need none", flushes)
		}
	}
}
