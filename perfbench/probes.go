package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"flick"
	"flick/internal/asm"
	"flick/internal/core"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/multibin"
	"flick/internal/paging"
	"flick/internal/pcie"
	"flick/internal/sim"
	"flick/internal/tlb"
	"flick/internal/workloads"
)

// A probe times one layer operation in isolation and proves, through a
// count the program reports, that it ran the path it names. Probes warm
// up before timing, except cpu.cold_step_ns, whose point is the cold path.
type probe struct {
	name string
	// measure returns the cost of one operation in the metric's unit, or
	// an error when the self-check fails.
	measure func(w workload, seed int64, sz size) (float64, error)
}

var probes = []probe{
	{"sim.sleep_inplace_ns", func(workload, int64, size) (float64, error) { return probeSleepInPlace() }},
	{"sim.handoff_ns", func(workload, int64, size) (float64, error) { return probeHandoff() }},
	{"sim.timer_wake_ns", func(workload, int64, size) (float64, error) { return probeTimerWake() }},
	{"cpu.block_ns", func(workload, int64, size) (float64, error) { return probeBlock("spin") }},
	{"cpu.block_mem_ns", func(workload, int64, size) (float64, error) { return probeBlock("spin_mem") }},
	{"cpu.cold_step_ns", func(workload, int64, size) (float64, error) { return probeColdStep() }},
	{"cpu.read_u64_virt_ns", func(workload, int64, size) (float64, error) { return probeReadU64Virt() }},
	{"mmu.translate_tlb_ns", func(workload, int64, size) (float64, error) { return probeTranslate(false) }},
	{"mmu.translate_walk_ns", func(workload, int64, size) (float64, error) { return probeTranslate(true) }},
	{"core.h2n_roundtrip_us", func(w workload, _ int64, _ size) (float64, error) { return probeCrossing(w, "h2n") }},
	{"core.n2h_roundtrip_us", func(w workload, _ int64, _ size) (float64, error) { return probeCrossing(w, "n2h") }},
	{"pcie.dma_ns", func(workload, int64, size) (float64, error) { return probeDMA() }},
	{"flick.build_ms", func(w workload, _ int64, _ size) (float64, error) { return probeBuild(w) }},
	{"workloads.rmat_ms", func(_ workload, seed int64, sz size) (float64, error) { return probeRMAT(seed, sz) }},
}

// probeRounds is how many timed rounds each probe takes; it reports the
// median round.
const probeRounds = 5

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeSleepInPlace: one process sleeping alone, so every sleep advances
// the clock in place and nothing enters the event queue.
func probeSleepInPlace() (float64, error) {
	const n = 1 << 20
	var rounds []float64
	var queued uint64
	env := sim.NewEnv()
	env.Spawn("solo", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
		}
		for r := 0; r < probeRounds; r++ {
			seq := env.SchedSeq()
			t0 := time.Now()
			for i := 0; i < n; i++ {
				p.Sleep(sim.Nanosecond)
			}
			rounds = append(rounds, perOp(time.Since(t0), n))
			queued += env.SchedSeq() - seq
		}
	})
	env.Run()
	if queued != 0 {
		return 0, fmt.Errorf("%d of %d sleeps were queued, want 0", queued, probeRounds*n)
	}
	return median(rounds), nil
}

// probeHandoff: two processes sleeping in lockstep. Each wakes at the
// same time as the other, which was queued first and so runs first: every
// sleep is queued and hands the goroutine baton to the other process.
func probeHandoff() (float64, error) {
	const n = 1 << 16
	var rounds []float64
	for r := 0; r <= probeRounds; r++ { // round 0 warms up
		env := sim.NewEnv()
		body := func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Nanosecond)
			}
		}
		env.Spawn("ping", body)
		env.Spawn("pong", body)
		seq := env.SchedSeq()
		t0 := time.Now()
		env.Run()
		d := time.Since(t0)
		if got := env.SchedSeq() - seq; got != 2*n {
			return 0, fmt.Errorf("%d sleeps queued %d events, want one each", 2*n, got)
		}
		if r > 0 {
			rounds = append(rounds, perOp(d, 2*n))
		}
	}
	return median(rounds), nil
}

// probeTimerWake: an AfterFunc timer signals a Cond a process waits on.
func probeTimerWake() (float64, error) {
	const n = 1 << 15
	var rounds []float64
	var queued uint64
	env := sim.NewEnv()
	env.Spawn("waiter", func(p *sim.Proc) {
		c := env.NewCond("probe")
		wake := c.Signal
		for r := 0; r <= probeRounds; r++ {
			seq := env.SchedSeq()
			t0 := time.Now()
			for i := 0; i < n; i++ {
				env.AfterFunc(sim.Nanosecond, wake)
				p.Wait(c)
			}
			if r > 0 {
				rounds = append(rounds, perOp(time.Since(t0), n))
				queued += env.SchedSeq() - seq
			}
		}
	})
	env.Run()
	if want := uint64(2 * n * probeRounds); queued != want {
		return 0, fmt.Errorf("timer wakes queued %d events, want %d (timer and wake)", queued, want)
	}
	return median(rounds), nil
}

// rigSource holds the interpreter probes' guest loops. spin is the
// xorshift round the compute workload's board calls run, a pure ALU block
// of eight instructions; spin_mem adds a load and a store to it; ring is a
// chain of distinct basic blocks, so a step after a cache flush retires
// exactly one freshly decoded block.
func rigSource() string {
	var b strings.Builder
	b.WriteString(`
.func main isa=host
    ret
.endfunc
.func spin isa=host
loop:
    shli t0, a0, 13
    xor  a0, a0, t0
    shri t0, a0, 7
    xor  a0, a0, t0
    shli t0, a0, 17
    xor  a0, a0, t0
    addi t2, t2, 1
    bne  t2, a1, loop
    ret
.endfunc
.func spin_mem isa=host
loop:
    ld8  t1, [a2+0]
    shli t0, a0, 13
    xor  a0, a0, t0
    shri t0, a0, 7
    xor  a0, a0, t0
    add  a0, a0, t1
    st8  a0, [a2+0]
    addi t2, t2, 1
    bne  t2, a1, loop
    ret
.endfunc
.func ring isa=host
`)
	for i := 0; i < ringBlocks; i++ {
		fmt.Fprintf(&b, "b%d:\n    addi a0, a0, 1\n    addi a0, a0, 1\n    addi a0, a0, 1\n    jmp b%d\n", i, (i+1)%ringBlocks)
	}
	b.WriteString(".endfunc\n")
	return b.String()
}

const (
	ringBlocks = 64
	dataVA     = 16 << 20 // identity-mapped data pages
	dataPages  = 64
)

// coreRig is one host core over identity-mapped memory, outside any
// machine: the smallest harness that reaches the interpreter, the MMUs and
// the TLBs through their public constructors.
type coreRig struct {
	env  *sim.Env
	core *cpu.Core
	dmmu *mmu.MMU
	syms map[string]uint64
}

// newCoreRig builds the rig with a data TLB of dtlbEntries entries.
func newCoreRig(dtlbEntries int) (*coreRig, error) {
	obj, err := asm.Assemble("probe.fasm", rigSource())
	if err != nil {
		return nil, err
	}
	im, err := multibin.Link(multibin.LinkConfig{}, obj)
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	phys := mem.NewAddressSpace("probe")
	ram := mem.NewRAM("dram", 64<<20)
	if err := phys.Map(0, ram); err != nil {
		return nil, err
	}
	frames, err := paging.NewFrameAlloc(32<<20, 16<<20)
	if err != nil {
		return nil, err
	}
	tables, err := paging.New(phys, frames)
	if err != nil {
		return nil, err
	}
	for _, seg := range im.Segments {
		if err := phys.Write(seg.VA, seg.Bytes); err != nil {
			return nil, err
		}
		n := (uint64(len(seg.Bytes)) + paging.PageSize4K - 1) &^ (paging.PageSize4K - 1)
		flags := paging.Flags{Writable: seg.Kind == multibin.SecData, User: true,
			NX: !(seg.Kind == multibin.SecText && seg.ISA == isa.ISAHost)}
		if err := tables.MapRange(seg.VA, seg.VA, n, paging.PageSize4K, flags); err != nil {
			return nil, err
		}
	}
	if err := tables.MapRange(dataVA, dataVA, dataPages*paging.PageSize4K, paging.PageSize4K,
		paging.Flags{Writable: true, User: true, NX: true}); err != nil {
		return nil, err
	}
	walk := func(uint64) sim.Duration { return 20 * sim.Nanosecond }
	dmmu := mmu.New("probe-dmmu", tlb.New("probe-dtlb", dtlbEntries), tables, walk, 0)
	c := cpu.New(cpu.Config{
		Name: "probe", ISA: isa.ISAHost,
		IMMU: mmu.New("probe-immu", tlb.New("probe-itlb", 64), tables, walk, 0), DMMU: dmmu,
		Phys: phys, CycleTime: sim.Nanosecond,
		AccessCost:  func(uint64, int, bool) sim.Duration { return 4 * sim.Nanosecond },
		FetchCost:   func(uint64) sim.Duration { return sim.Nanosecond },
		ICacheLines: 512,
	})
	c.Register(env.Metrics())
	return &coreRig{env: env, core: c, dmmu: dmmu, syms: im.Symbols}, nil
}

// enter installs a fresh context at fn with a0 = 1 (a nonzero xorshift
// state), a1 = ^0 (a loop bound never reached) and a2 = the data page.
func (r *coreRig) enter(fn string) {
	ctx := &cpu.Context{PC: r.syms[fn]}
	ctx.SetReg(isa.A0, 1)
	ctx.SetReg(isa.A1, ^uint64(0))
	ctx.SetReg(isa.A2, dataVA)
	r.core.SetContext(ctx)
}

func (r *coreRig) gauge(name string) uint64 {
	for _, s := range r.env.Metrics().Snapshot().Counters {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// stepInstrs steps the core until n more instructions retire.
func (r *coreRig) stepInstrs(p *sim.Proc, n uint64) error {
	start, _ := r.core.Stats()
	for {
		if in, _ := r.core.Stats(); in-start >= n {
			return nil
		}
		if err := r.core.Step(p); err != nil {
			return err
		}
	}
}

// probeBlock times a warm guest loop per retired instruction.
func probeBlock(fn string) (float64, error) {
	const n = 1 << 21
	r, err := newCoreRig(64)
	if err != nil {
		return 0, err
	}
	r.enter(fn)
	var rounds []float64
	var stepErr error
	r.env.Spawn("probe", func(p *sim.Proc) {
		if stepErr = r.stepInstrs(p, 1<<12); stepErr != nil {
			return
		}
		for i := 0; i < probeRounds && stepErr == nil; i++ {
			t0 := time.Now()
			stepErr = r.stepInstrs(p, n)
			rounds = append(rounds, perOp(time.Since(t0), n))
		}
	})
	r.env.Run()
	if stepErr != nil {
		return 0, stepErr
	}
	return median(rounds), nil
}

// probeColdStep flushes the core's instruction caches before every step,
// so each step fetches, decodes and fills its block again. The count that
// proves it is the I-cache fill counter, which the same flush clears.
func probeColdStep() (float64, error) {
	const steps = 1 << 14
	r, err := newCoreRig(64)
	if err != nil {
		return 0, err
	}
	r.enter("ring")
	fills := "cpu.probe.icache.fills"
	var rounds []float64
	var stepErr error
	var short uint64
	r.env.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < probeRounds && stepErr == nil; i++ {
			f0 := r.gauge(fills)
			in0, _ := r.core.Stats()
			t0 := time.Now()
			for s := 0; s < steps && stepErr == nil; s++ {
				r.core.InvalidateICache()
				stepErr = r.core.Step(p)
			}
			d := time.Since(t0)
			in1, _ := r.core.Stats()
			rounds = append(rounds, perOp(d, int(in1-in0)))
			if got := r.gauge(fills) - f0; got < steps {
				short += steps - got
			}
		}
	})
	r.env.Run()
	if stepErr != nil {
		return 0, stepErr
	}
	if short > 0 {
		return 0, fmt.Errorf("%d steps refilled no block", short)
	}
	return median(rounds), nil
}

// probeReadU64Virt: a native-style timed read on a TLB-resident page.
func probeReadU64Virt() (float64, error) {
	const n = 1 << 20
	r, err := newCoreRig(64)
	if err != nil {
		return 0, err
	}
	r.enter("spin")
	var rounds []float64
	var readErr error
	var walks uint64
	r.env.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i <= probeRounds && readErr == nil; i++ {
			w0, _ := r.dmmu.Stats()
			t0 := time.Now()
			for k := 0; k < n && readErr == nil; k++ {
				_, readErr = r.core.ReadU64Virt(p, dataVA+uint64(k&63)*8)
			}
			if i > 0 {
				rounds = append(rounds, perOp(time.Since(t0), n))
				w1, _ := r.dmmu.Stats()
				walks += w1 - w0
			}
		}
	})
	r.env.Run()
	if readErr != nil {
		return 0, readErr
	}
	if walks != 0 {
		return 0, fmt.Errorf("%d reads of a resident page walked the tables", walks)
	}
	return median(rounds), nil
}

// probeTranslate times MMU.Translate. Hits alternate between two resident
// pages, so the same-page shortcut never applies; misses cycle through
// more pages than the 16-entry FIFO TLB holds, so every call walks all
// four levels. The walk counter proves which path ran.
func probeTranslate(miss bool) (float64, error) {
	const n = 1 << 18
	entries, pages := 64, 2
	if miss {
		entries, pages = 16, dataPages
	}
	r, err := newCoreRig(entries)
	if err != nil {
		return 0, err
	}
	var rounds []float64
	var trErr error
	var walks uint64
	r.env.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i <= probeRounds && trErr == nil; i++ {
			w0, _ := r.dmmu.Stats()
			t0 := time.Now()
			for k := 0; k < n && trErr == nil; k++ {
				_, trErr = r.dmmu.Translate(p, dataVA+uint64(k%pages)*paging.PageSize4K)
			}
			if i > 0 {
				rounds = append(rounds, perOp(time.Since(t0), n))
				w1, _ := r.dmmu.Stats()
				walks += w1 - w0
			}
		}
	})
	r.env.Run()
	if trErr != nil {
		return 0, trErr
	}
	want := uint64(0)
	if miss {
		want = uint64(n * probeRounds)
	}
	if walks != want {
		return 0, fmt.Errorf("%d translations walked %d times, want %d", n*probeRounds, walks, want)
	}
	return median(rounds), nil
}

// crossSource is the null-call program of the crossing probes: main makes
// host-to-board calls, outer one board call that makes board-to-host
// calls.
const crossSource = `
.func main isa=host
    mov  t5, a0
l:
    call board_null
    addi t5, t5, -1
    bne  t5, zr, l
    movi a0, 0
    sys  1
.endfunc

.func outer isa=host
    call board_loop
    movi a0, 0
    sys  1
.endfunc

.func board_null isa=nxp
    ret
.endfunc

.func board_loop isa=nxp
    mov  t5, a0
    push ra
l:
    call host_null
    addi t5, t5, -1
    bne  t5, zr, l
    pop  ra
    ret
.endfunc

.func host_null isa=host
    ret
.endfunc
`

// probeCrossing is the host wall time of one null ISA-crossing round
// trip on a machine of the workload's shape, in µs.
func probeCrossing(w workload, dir string) (float64, error) {
	const n = 1000
	sys, err := flick.Build(guestConfig(w.cores, w.boards, crossSource))
	if err != nil {
		return 0, err
	}
	fn := map[string]string{"h2n": "main", "n2h": "outer"}[dir]
	calls := func() int {
		st := sys.Runtime.Stats()
		if dir == "h2n" {
			return st.H2NCalls
		}
		return st.N2HCalls
	}
	var rounds []float64
	for i := 0; i <= probeRounds; i++ {
		c0 := calls()
		if _, err := sys.Start(fn, n); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := sys.Run(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if got := calls() - c0; got != n {
			return 0, fmt.Errorf("%s probe made %d crossings, want %d", dir, got, n)
		}
		if i > 0 {
			rounds = append(rounds, perOp(d, n)/1e3)
		}
	}
	return median(rounds), nil
}

// probeDMA: one descriptor-sized transfer through a DMA engine, submitted
// by a process that waits for its completion.
func probeDMA() (float64, error) {
	const n = 1 << 14
	env := sim.NewEnv()
	src, dst := mem.NewAddressSpace("src"), mem.NewAddressSpace("dst")
	if err := src.Map(0, mem.NewRAM("host", 1<<20)); err != nil {
		return 0, err
	}
	if err := dst.Map(0, mem.NewRAM("bram", 1<<20)); err != nil {
		return 0, err
	}
	eng := pcie.NewEngine(env, pcie.PCIe3x8(), 100*sim.Nanosecond)
	var rounds []float64
	env.Spawn("submitter", func(p *sim.Proc) {
		done := env.NewCond("done")
		var finished bool
		req := pcie.Request{SrcSpace: src, DstSpace: dst, Dst: 4096, Size: core.DescSize, Tag: "probe",
			OnDone: func(sim.Time, bool) { finished = true; done.Signal() }}
		for i := 0; i <= probeRounds; i++ {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				finished = false
				eng.Submit(req)
				p.WaitFor(done, func() bool { return finished })
			}
			if i > 0 {
				rounds = append(rounds, perOp(time.Since(t0), n))
			}
		}
	})
	env.Run()
	if got, want := eng.Stats().Transfers, n*(probeRounds+1); got != want {
		return 0, fmt.Errorf("DMA engine finished %d transfers, want %d", got, want)
	}
	return median(rounds), nil
}

// probeBuild times flick.Build of the workload's machine shape, in ms.
func probeBuild(w workload) (float64, error) {
	var rounds []float64
	for i := 0; i <= 2*probeRounds; i++ {
		t0 := time.Now()
		if _, err := flick.Build(guestConfig(w.cores, w.boards, crossSource)); err != nil {
			return 0, err
		}
		if i > 0 {
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	return median(rounds), nil
}

// probeRMAT times generating the largest Table IV graph at paper's scale,
// in ms.
func probeRMAT(seed int64, sz size) (float64, error) {
	d := workloads.LiveJournal1.Scale(paperOptions(seed, sz).BFSScale)
	var rounds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if g := workloads.GenerateRMAT(d, seed); g.NumEdges() != d.Edges {
			return 0, fmt.Errorf("RMAT made %d edges, want %d", g.NumEdges(), d.Edges)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(rounds), nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
