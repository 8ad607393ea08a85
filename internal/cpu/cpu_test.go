package cpu_test

import (
	"errors"
	"strings"
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

// machine is a minimal single-view test rig: one RAM, identity-mapped page
// tables, one host core and one NxP core sharing the address space.
type machine struct {
	env    *sim.Env
	phys   *mem.AddressSpace
	tables *paging.Tables
	nat    *cpu.NativeTable
	host   *cpu.Core
	nxp    *cpu.Core
	image  *multibin.Image
}

const stackTop = 0x7F_0000

func buildMachine(t *testing.T, src string) *machine {
	t.Helper()
	obj, err := asm.Assemble("test.fasm", src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := multibin.Link(multibin.LinkConfig{}, obj)
	if err != nil {
		t.Fatal(err)
	}

	m := &machine{env: sim.NewEnv(), image: im, nat: cpu.NewNativeTable()}
	m.phys = mem.NewAddressSpace("host")
	ram := mem.NewRAM("dram", 64<<20)
	if err := m.phys.Map(0, ram); err != nil {
		t.Fatal(err)
	}
	alloc, err := paging.NewFrameAlloc(1<<20, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.tables, err = paging.New(m.phys, alloc)
	if err != nil {
		t.Fatal(err)
	}

	// Identity-load each segment and map with the loader's NX convention:
	// host text NX=0, everything else NX=1.
	for _, seg := range im.Segments {
		ram.Store().WriteAt(seg.VA, seg.Bytes)
		n := (uint64(len(seg.Bytes)) + paging.PageSize4K - 1) &^ (paging.PageSize4K - 1)
		nx := !(seg.Kind == multibin.SecText && seg.ISA == isa.ISAHost)
		writable := seg.Kind == multibin.SecData
		if err := m.tables.MapRange(seg.VA, seg.VA, n, paging.PageSize4K, paging.Flags{Writable: writable, User: true, NX: nx}); err != nil {
			t.Fatal(err)
		}
	}
	// Stack.
	if err := m.tables.MapRange(stackTop-0x10000, stackTop-0x10000, 0x10000, paging.PageSize4K, paging.Flags{Writable: true, User: true, NX: true}); err != nil {
		t.Fatal(err)
	}

	mkMMU := func(name string) *mmu.MMU {
		return mmu.New(name, tlb.New(name, 64), m.tables, func(uint64) sim.Duration { return 10 * sim.Nanosecond }, 0)
	}
	m.host = cpu.New(cpu.Config{
		Name: "host0", ISA: isa.ISAHost,
		IMMU: mkMMU("host-itlb"), DMMU: mkMMU("host-dtlb"),
		Phys: m.phys, CycleTime: 417 * sim.Picosecond,
		ExecNX:  false,
		Natives: m.nat,
		Fault: func(p *sim.Proc, c *cpu.Core, f *cpu.Fault) error {
			return f // declined, so Step returns it as an error
		},
	})
	m.nxp = cpu.New(cpu.Config{
		Name: "nxp0", ISA: isa.ISANxP,
		IMMU: mkMMU("nxp-itlb"), DMMU: mkMMU("nxp-dtlb"),
		Phys: m.phys, CycleTime: 5 * sim.Nanosecond,
		ExecNX:  true,
		Natives: m.nat,
		Fault: func(p *sim.Proc, c *cpu.Core, f *cpu.Fault) error {
			return f // declined, so Step returns it as an error
		},
	})
	return m
}

// runOn executes symbol on the given core until halt or error.
func (m *machine) runOn(t *testing.T, core *cpu.Core, entry string) (*cpu.Context, error) {
	t.Helper()
	va, ok := m.image.Symbols[entry]
	if !ok {
		t.Fatalf("symbol %q not found", entry)
	}
	ctx := &cpu.Context{PC: va}
	ctx.SetReg(isa.SP, stackTop)
	core.SetContext(ctx)
	var err error
	m.env.Spawn("runner", func(p *sim.Proc) {
		err = core.Run(p, 1_000_000)
	})
	m.env.Run()
	return ctx, err
}

func TestArithmeticProgram(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    movi a0, 6
    movi a1, 7
    mul  a2, a0, a1    ; 42
    addi a2, a2, 100   ; 142
    movi t0, 10
    udiv a3, a2, t0    ; 14
    urem a4, a2, t0    ; 2
    sub  a5, a2, a3    ; 128
    halt
.endfunc
`)
	ctx, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	for reg, want := range map[isa.Reg]uint64{isa.A2: 142, isa.A3: 14, isa.A4: 2, isa.A5: 128} {
		if got := ctx.Reg(reg); got != want {
			t.Errorf("%v = %d, want %d", reg, got, want)
		}
	}
	if instret, _ := m.host.Stats(); instret != 9 { // 8 ALU/moves + halt
		t.Errorf("instret = %d, want 9", instret)
	}
}

func TestLoopAndBranches(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    movi a0, 0        ; sum
    movi t0, 1        ; i
    movi t1, 11
loop:
    add  a0, a0, t0
    addi t0, t0, 1
    blt  t0, t1, loop
    halt
.endfunc
`)
	ctx, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	if got := ctx.Reg(isa.A0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestCallRetAndStack(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    movi a0, 5
    call double
    call double
    halt              ; a0 = 20
.endfunc
.func double isa=host
    push ra
    add  a0, a0, a0
    pop  ra
    ret
.endfunc
`)
	ctx, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	if got := ctx.Reg(isa.A0); got != 20 {
		t.Errorf("a0 = %d, want 20", got)
	}
	if sp := ctx.Reg(isa.SP); sp != stackTop {
		t.Errorf("stack imbalance: sp = %#x", sp)
	}
}

func TestLoadsStoresAllWidths(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    la   t0, buf
    li   t1, 0x1122334455667788
    st8  t1, [t0+0]
    ld1  a0, [t0+0]    ; 0x88
    ld2  a1, [t0+0]    ; 0x7788
    ld4  a2, [t0+0]    ; 0x55667788
    ld8  a3, [t0+0]
    st2  t1, [t0+8]
    ld8  a4, [t0+8]    ; 0x7788 (rest zero)
    halt
.endfunc
.data buf isa=host
    .zero 64
.enddata
`)
	ctx, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	want := map[isa.Reg]uint64{
		isa.A0: 0x88, isa.A1: 0x7788, isa.A2: 0x55667788,
		isa.A3: 0x1122334455667788, isa.A4: 0x7788,
	}
	for reg, w := range want {
		if got := ctx.Reg(reg); got != w {
			t.Errorf("%v = %#x, want %#x", reg, got, w)
		}
	}
}

func TestZeroRegister(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    movi zr, 99
    mov  a0, zr
    addi a1, zr, 3
    halt
.endfunc
`)
	ctx, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	if ctx.Reg(isa.ZR) != 0 || ctx.Reg(isa.A0) != 0 || ctx.Reg(isa.A1) != 3 {
		t.Errorf("zr semantics broken: %v %v %v", ctx.Reg(isa.ZR), ctx.Reg(isa.A0), ctx.Reg(isa.A1))
	}
}

func TestNxPCoreRunsNxpCode(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    halt
.endfunc
.func nxpsum isa=nxp
    movi a0, 0
    movi t0, 1
loop:
    add  a0, a0, t0
    addi t0, t0, 1
    blt  t0, a1, loop
    halt
.endfunc
`)
	va := m.image.Symbols["nxpsum"]
	ctx := &cpu.Context{PC: va}
	ctx.SetReg(isa.SP, stackTop)
	ctx.SetReg(isa.A1, 11)
	m.nxp.SetContext(ctx)
	var err error
	m.env.Spawn("nxp-runner", func(p *sim.Proc) { err = m.nxp.Run(p, 0) })
	m.env.Run()
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	if got := ctx.Reg(isa.A0); got != 55 {
		t.Errorf("nxp sum = %d", got)
	}
}

func TestHostFetchOfNxpPageFaultsNX(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    call remote
    halt
.endfunc
.func remote isa=nxp
    ret
.endfunc
`)
	_, err := m.runOn(t, m.host, "main")
	var f *cpu.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want Fault", err)
	}
	if f.Kind != cpu.FaultFetchNX {
		t.Errorf("fault kind = %v, want fetch-nx", f.Kind)
	}
	if f.VA != m.image.Symbols["remote"] {
		t.Errorf("fault VA = %#x, want remote %#x — the migration target", f.VA, m.image.Symbols["remote"])
	}
}

func TestNxpFetchOfHostPageFaults(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    halt
.endfunc
.func f isa=nxp
    call hosty          ; resolves to host text
    ret
.endfunc
.func hosty isa=host
    ret
.endfunc
`)
	va := m.image.Symbols["f"]
	ctx := &cpu.Context{PC: va}
	ctx.SetReg(isa.SP, stackTop)
	m.nxp.SetContext(ctx)
	var err error
	m.env.Spawn("nxp-runner", func(p *sim.Proc) { err = m.nxp.Run(p, 0) })
	m.env.Run()
	var f *cpu.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v", err)
	}
	// Host functions are 16-aligned so both triggers are possible; with
	// aligned entry the NX-polarity fault fires. Either is a valid
	// migration trigger per the paper.
	if f.Kind != cpu.FaultFetchNX && f.Kind != cpu.FaultFetchMisaligned {
		t.Errorf("fault kind = %v", f.Kind)
	}
	if f.VA != m.image.Symbols["hosty"] {
		t.Errorf("fault VA = %#x, want hosty", f.VA)
	}
}

func TestNxpMisalignedFetchFaults(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`)
	ctx := &cpu.Context{PC: m.image.Symbols["f"] + 4} // mid-instruction
	m.nxp.SetContext(ctx)
	var err error
	m.env.Spawn("nxp-runner", func(p *sim.Proc) { err = m.nxp.Step(p) })
	m.env.Run()
	var f *cpu.Fault
	if !errors.As(err, &f) || f.Kind != cpu.FaultFetchMisaligned {
		t.Errorf("err = %v, want misaligned fault", err)
	}
}

func TestHostDecodingNxpBytesIsIllegal(t *testing.T) {
	// Force the host to execute NxP code by clearing NX — decode must
	// then fail (wrong-ISA bytes), the backstop behind the NX mechanism.
	m := buildMachine(t, `
.func main isa=host
    halt
.endfunc
.func f isa=nxp
    movi a0, 1
    ret
.endfunc
`)
	va := m.image.Symbols["f"]
	if err := m.tables.SetNX(va&^4095, 4096, false); err != nil {
		t.Fatal(err)
	}
	ctx := &cpu.Context{PC: va}
	m.host.SetContext(ctx)
	var err error
	m.env.Spawn("runner", func(p *sim.Proc) { err = m.host.Step(p) })
	m.env.Run()
	var f *cpu.Fault
	if !errors.As(err, &f) || f.Kind != cpu.FaultIllegalInstr {
		t.Errorf("err = %v, want illegal-instruction", err)
	}
}

func TestDataFaults(t *testing.T) {
	t.Run("not mapped", func(t *testing.T) {
		m := buildMachine(t, `
.func main isa=host
    li  t0, 0x50000000
    ld8 a0, [t0+0]
    halt
.endfunc
`)
		_, err := m.runOn(t, m.host, "main")
		var f *cpu.Fault
		if !errors.As(err, &f) || f.Kind != cpu.FaultDataNotMapped {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("write to read-only text", func(t *testing.T) {
		m := buildMachine(t, `
.func main isa=host
    la  t0, main
    st8 a0, [t0+0]
    halt
.endfunc
`)
		_, err := m.runOn(t, m.host, "main")
		var f *cpu.Fault
		if !errors.As(err, &f) || f.Kind != cpu.FaultDataProtection {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("div by zero", func(t *testing.T) {
		m := buildMachine(t, `
.func main isa=host
    movi a0, 5
    udiv a0, a0, zr
    halt
.endfunc
`)
		_, err := m.runOn(t, m.host, "main")
		var f *cpu.Fault
		if !errors.As(err, &f) || f.Kind != cpu.FaultArith {
			t.Errorf("err = %v", err)
		}
	})
}

func TestNativeStubAndNestedCall(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    movi a0, 21
    call magic       ; native: doubles a0, then calls triple interpreted
    halt
.endfunc
.func magic isa=host
    native 1
.endfunc
.func triple isa=host
    muli a0, a0, 3
    ret
.endfunc
`)
	m.nat.Register(1, func(p *sim.Proc, c *cpu.Core) error {
		args := c.Args()
		doubled := args[0] * 2
		ret, err := c.Call(p, m.image.Symbols["triple"], doubled)
		if err != nil {
			return err
		}
		c.Context().SetReg(isa.A0, ret+1)
		return nil
	})
	ctx, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	if got := ctx.Reg(isa.A0); got != 21*2*3+1 {
		t.Errorf("a0 = %d, want 127", got)
	}
}

func TestNativeUnregistered(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    native 99
.endfunc
`)
	_, err := m.runOn(t, m.host, "main")
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("err = %v", err)
	}
}

func TestSysHandler(t *testing.T) {
	var gotNum int64
	m := buildMachine(t, `
.func main isa=host
    movi a0, 77
    sys  42
    halt
.endfunc
`)
	// Rebuild host core config with a syscall handler via direct field:
	// simplest is registering through a new machine; instead run with a
	// wrapper core. The test rig exposes no setter, so rebuild inline.
	obj, _ := asm.Assemble("t.fasm", `
.func main isa=host
    movi a0, 77
    sys  42
    halt
.endfunc
`)
	_ = obj
	m2 := buildMachineWithSys(t, m, &gotNum)
	ctx, err := m2.runOn(t, m2.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	if gotNum != 42 {
		t.Errorf("sys num = %d", gotNum)
	}
	if ctx.Reg(isa.A0) != 78 {
		t.Errorf("handler's register write lost: a0 = %d", ctx.Reg(isa.A0))
	}
}

// buildMachineWithSys clones the machine sources with a syscall handler.
func buildMachineWithSys(t *testing.T, _ *machine, gotNum *int64) *machine {
	t.Helper()
	m := buildMachine(t, `
.func main isa=host
    movi a0, 77
    sys  42
    halt
.endfunc
`)
	// Rebuild the host core with a Sys handler.
	mk := func(name string) *mmu.MMU {
		return mmu.New(name, tlb.New(name, 64), m.tables, func(uint64) sim.Duration { return 0 }, 0)
	}
	m.host = cpu.New(cpu.Config{
		Name: "host0", ISA: isa.ISAHost,
		IMMU: mk("i"), DMMU: mk("d"),
		Phys: m.phys, CycleTime: 417 * sim.Picosecond,
		Natives: m.nat,
		Sys: func(p *sim.Proc, c *cpu.Core, num int64) error {
			*gotNum = num
			c.Context().SetReg(isa.A0, c.Context().Reg(isa.A0)+1)
			return nil
		},
	})
	return m
}

func TestTimingAccumulates(t *testing.T) {
	m := buildMachine(t, `
.func main isa=host
    movi t0, 100
loop:
    addi t0, t0, -1
    bne  t0, zr, loop
    halt
.endfunc
`)
	_, err := m.runOn(t, m.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("err = %v", err)
	}
	instret, cycles := m.host.Stats()
	if instret != 202 {
		t.Errorf("instret = %d, want 202", instret)
	}
	if cycles < instret {
		t.Errorf("cycles = %d < instret", cycles)
	}
	// Virtual time: cycles * 417ps plus page-walk costs.
	if m.env.Now() == 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestNxpSlowerThanHost(t *testing.T) {
	src := `
.func main isa=host
    movi t0, 1000
hloop:
    addi t0, t0, -1
    bne  t0, zr, hloop
    halt
.endfunc
.func nmain isa=nxp
    movi t0, 1000
nloop:
    addi t0, t0, -1
    bne  t0, zr, nloop
    halt
.endfunc
`
	mh := buildMachine(t, src)
	_, err := mh.runOn(t, mh.host, "main")
	if !errors.Is(err, cpu.ErrHalted) {
		t.Fatal(err)
	}
	hostTime := mh.env.Now()

	mn := buildMachine(t, src)
	ctx := &cpu.Context{PC: mn.image.Symbols["nmain"]}
	mn.nxp.SetContext(ctx)
	var nerr error
	mn.env.Spawn("nxp", func(p *sim.Proc) { nerr = mn.nxp.Run(p, 0) })
	mn.env.Run()
	if !errors.Is(nerr, cpu.ErrHalted) {
		t.Fatal(nerr)
	}
	nxpTime := mn.env.Now()
	// 200 MHz vs 2.4 GHz: the NxP should be roughly 12x slower.
	ratio := float64(nxpTime) / float64(hostTime)
	if ratio < 6 || ratio > 20 {
		t.Errorf("NxP/host time ratio = %.1f, want ≈12", ratio)
	}
}
