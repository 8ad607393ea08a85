package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/multibin"
	"flick/internal/platform"
	"flick/internal/sim"
)

// Native stub ids used by the runtime's assembly stubs.
const (
	NativeHostHandler = 1
	NativeNxPHandler  = 2
	NativeMallocHost  = 3
	NativeMallocNxP   = 4
	// NativeMallocNxPFromHost backs `nxp_malloc`, the paper's annotated
	// allocation (§III-D): host code allocating in the device's memory
	// region — e.g. to initialize data for near-storage processors —
	// without migrating.
	NativeMallocNxPFromHost = 5
)

// Library returns the Flick runtime library in assembly for the given ISA
// families. Each family gets its migration handler stub, placed in that
// family's text section so the NX markings are correct, and its variants
// of PerISASymbols: the linker binds each call site to the variant of the
// calling section's ISA (§III-D), so board code never leaves its core for
// a malloc or a memcpy. The host half adds nxp_malloc and print_str.
// Every body is written once; families may repeat and come in any order,
// and each is emitted once, in ISA-id order.
//
//	malloc(size) → ptr          — the calling ISA's heap
//	memcpy(dst, src, n) → dst
//	memset(dst, byte, n) → dst
//	strlen(ptr) → length of the NUL-terminated string
//	nxp_malloc(size) → ptr      — host only: allocates in board DRAM (the
//	                              paper's annotated near-storage case)
//	print_str(ptr)              — host only: writes a NUL-terminated string
//	                              to the console via sys 2
func Library(families []isa.ISA) string {
	var b strings.Builder
	b.WriteString("; Flick runtime library, generated per ISA family.\n")
	for _, be := range isa.All() {
		if !slices.Contains(families, be.ISA()) {
			continue
		}
		fn := func(name, body string) {
			b.WriteString("\n.func " + name + " isa=" + be.Name() + "\n")
			b.WriteString(body)
			b.WriteString(".endfunc\n")
		}
		native := func(id int) string { return "    native " + strconv.Itoa(id) + "\n" }
		handler, malloc := NativeNxPHandler, NativeMallocNxP
		if be.Host() {
			handler, malloc = NativeHostHandler, NativeMallocHost
		}
		fn("__flick_"+be.Name()+"_handler", native(handler))
		fn("malloc."+be.Name(), native(malloc))
		if be.Host() {
			fn("nxp_malloc", native(NativeMallocNxPFromHost))
		}
		fn("memcpy."+be.Name(), memcpyBody)
		fn("memset."+be.Name(), memsetBody)
		fn("strlen."+be.Name(), strlenBody)
		if be.Host() {
			fn("print_str", printStrBody)
		}
	}
	return b.String()
}

// The library's function bodies, in the instruction set every family
// shares.
const (
	memcpyBody = `    ; a0 = dst, a1 = src, a2 = n; returns dst
    mov  t5, a0
mloop:
    beq  a2, zr, mdone
    ld1  t0, [a1+0]
    st1  t0, [a0+0]
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    jmp  mloop
mdone:
    mov  a0, t5
    ret
`
	memsetBody = `    ; a0 = dst, a1 = fill byte, a2 = n; returns dst
    mov  t5, a0
sloop:
    beq  a2, zr, sdone
    st1  a1, [a0+0]
    addi a0, a0, 1
    addi a2, a2, -1
    jmp  sloop
sdone:
    mov  a0, t5
    ret
`
	strlenBody = `    ; a0 = ptr; returns length
    movi t0, 0
lloop:
    ld1  t1, [a0+0]
    beq  t1, zr, ldone
    addi t0, t0, 1
    addi a0, a0, 1
    jmp  lloop
ldone:
    mov  a0, t0
    ret
`
	printStrBody = `ploop:
    ld1  t0, [a0+0]
    beq  t0, zr, pdone
    push a0
    mov  a0, t0
    sys  2
    pop  a0
    addi a0, a0, 1
    jmp  ploop
pdone:
    ret
`
)

// PerISASymbols lists the symbols the linker resolves per referring ISA
// when building Flick programs: the allocator (§III-D) and the stdlib
// memory utilities.
var PerISASymbols = []string{"malloc", "memcpy", "memset", "strlen"}

// Costs models the Flick runtime's software overheads, calibrated together
// with kernel.Costs so the null-call round trips land on the paper's
// Table III (18.3 µs / 16.9 µs).
type Costs struct {
	// HostHandlerWork is the user-space handler's argument gathering and
	// bookkeeping per pass (Listing 1 glue).
	HostHandlerWork sim.Duration
	// StackInit is the one-time cost of allocating and preparing a
	// thread's NxP stack on its first migration.
	StackInit sim.Duration
	// NxPFaultEntry is exception entry + redirect on the 200 MHz core.
	NxPFaultEntry sim.Duration
	// NxPHandlerWork is the NxP-side handler glue per pass (Listing 2).
	NxPHandlerWork sim.Duration
	// NxPDispatch is the scheduler's average poll-discovery latency plus
	// status-register decode.
	NxPDispatch sim.Duration
	// NxPContextSwitch is the NxP scheduler's switch into a thread.
	NxPContextSwitch sim.Duration
}

// DefaultCosts returns the calibrated runtime cost set.
func DefaultCosts() Costs {
	return Costs{
		HostHandlerWork:  500 * sim.Nanosecond,
		StackInit:        2 * sim.Microsecond,
		NxPFaultEntry:    1500 * sim.Nanosecond, // 300 cycles @ 200 MHz
		NxPHandlerWork:   800 * sim.Nanosecond,  // 160 cycles
		NxPDispatch:      2800 * sim.Nanosecond,
		NxPContextSwitch: 2300 * sim.Nanosecond, // 460 cycles
	}
}

// Stats counts migration activity.
type Stats struct {
	// H2NCalls counts host→NxP call migrations; N2HCalls the reverse.
	H2NCalls int
	N2HCalls int
	// NXFaults counts host-side NX faults that became migrations.
	NXFaults int
}

// Runtime is the installed Flick machinery on one machine: mailboxes,
// handlers, schedulers, and hooks.
type Runtime struct {
	M     *platform.Machine
	K     *kernel.Kernel
	Prog  *kernel.Program
	Costs Costs

	// Mboxes holds one descriptor mailbox per board, in board order.
	Mboxes []*Mailbox

	// ExtraMigrationLatency is injected once per call migration, in each
	// direction, to emulate slower prior-work mechanisms (Fig. 5's 500 µs
	// and 1 ms curves).
	ExtraMigrationLatency sim.Duration

	hostHandlerVA uint64

	// Per-board-core runtime state: the handler stub each core's faults
	// redirect to, the pid currently executing there, and the last
	// faulting address (consumed immediately by the handler stub). The
	// map serves fault-handler lookup; states holds the same entries in
	// the platform's build order (Machine.BoardCores) for probe scans and
	// scheduler spawning.
	board  map[*cpu.Core]*boardState
	states []*boardState

	// stats holds the migration counters. Only the goroutine holding the
	// simulation's baton runs, so every path may bump them directly.
	stats Stats

	// descBuf is the scratch buffer for the timed descriptor accesses
	// below. They all run under the sequential engine (descriptor traffic
	// is a run-ahead sync point), and each helper charges its Sleep — the only
	// yield point — before filling the buffer, so one buffer per runtime
	// keeps the migration hot path allocation-free.
	descBuf [DescSize]byte
}

// boardState is the runtime's per-board-core bookkeeping.
type boardState struct {
	idx       int       // board index the core lives on
	core      *cpu.Core // the board core itself
	mbox      *Mailbox  // the board's mailbox
	handlerVA uint64
	curPID    uint32
	faultAddr uint64
	// busy marks the window in which the scheduler is executing curPID's
	// call (including everything nested under it) — the signal that tells
	// the kernel's migration probe the callee is alive, not lost.
	busy bool
	// schedCtx is the scheduler loop's reusable top-level call context,
	// reset before each migrated-in call.
	schedCtx *cpu.Context
}

// Activate installs the Flick runtime onto a machine with a loaded
// program. The program must have been linked with PerISASymbols and with
// Library for the host and every family of the machine's board cores, as
// flick.Build does.
func Activate(m *platform.Machine, prog *kernel.Program) (*Runtime, error) {
	rt := &Runtime{M: m, K: m.Kernel, Prog: prog, Costs: DefaultCosts()}

	var err error
	if rt.hostHandlerVA, err = prog.SymbolVA("__flick_host_handler"); err != nil {
		return nil, fmt.Errorf("core: program not linked with the Flick runtime: %w", err)
	}
	// One state per board core, in the platform's build order. Each core's
	// faults redirect to its family's handler stub, "__flick_<isa>_handler".
	rt.board = make(map[*cpu.Core]*boardState)
	registered := make(map[isa.ISA]bool)
	for _, bc := range m.BoardCores {
		is := bc.Core.ISA()
		va, err := prog.SymbolVA("__flick_" + is.String() + "_handler")
		if err != nil {
			return nil, fmt.Errorf("core: program not linked with the %s runtime: %w", is, err)
		}
		st := &boardState{idx: bc.Board.Index, core: bc.Core, handlerVA: va}
		rt.board[bc.Core] = st
		rt.states = append(rt.states, st)
		registered[is] = true
	}
	// Every board ISA the image carries text for needs a core of that
	// family somewhere, or its calls could never execute.
	for _, seg := range prog.Image.Segments {
		if seg.Kind == multibin.SecText && !isa.IsHost(seg.ISA) && !registered[seg.ISA] {
			return nil, fmt.Errorf("core: image contains .text.%s but the platform has no %s core", seg.ISA, seg.ISA)
		}
	}

	route := func(target uint64) (isa.ISA, bool) { return prog.Image.TextISA(target) }
	// A descriptor abandoned by the DMA retry machinery fails its task and
	// wakes it so the host handler surfaces the error instead of waiting
	// out the full migration timeout.
	fail := func(pid uint32, err error) {
		rt.failTask(pid, err)
		if t, ok := m.Kernel.TaskByPID(int(pid)); ok {
			t.Wake()
		}
	}
	// One mailbox per board, each with its own host-DRAM staging and
	// arrival pages and its own MSI site ("msi", "msi1", ...).
	for _, b := range m.Boards {
		staging, err := m.Alloc.Alloc()
		if err != nil {
			return nil, err
		}
		arrival, err := m.Alloc.Alloc()
		if err != nil {
			return nil, err
		}
		site := "msi"
		if b.Index > 0 {
			site = fmt.Sprintf("msi%d", b.Index)
		}
		mb, err := newMailbox(m, b, staging, arrival, func(pid int) { m.Kernel.DeliverMSIVia(site, pid) }, route, fail)
		if err != nil {
			return nil, err
		}
		rt.Mboxes = append(rt.Mboxes, mb)
	}
	for _, st := range rt.states {
		st.mbox = rt.Mboxes[st.idx]
	}
	// The kernel validates migration wakes (and recovers lost MSIs) by
	// probing the mailboxes' pending-arrival tables; the busy signals let
	// it tell a long-running callee apart from a lost wake.
	m.Kernel.SetMigrationProbe(func(pid int) kernel.ProbeState {
		id := uint32(pid)
		for _, mb := range rt.Mboxes {
			if mb.HasN2H(id) {
				return kernel.ProbeReady
			}
		}
		for _, st := range rt.states {
			if st.busy && st.curPID == id {
				return kernel.ProbeBusy
			}
		}
		for _, mb := range rt.Mboxes {
			if mb.PendingFor(id) {
				return kernel.ProbeBusy
			}
		}
		return kernel.ProbeIdle
	})

	m.Natives.Register(NativeHostHandler, rt.hostHandler)
	m.Natives.Register(NativeNxPHandler, rt.nxpHandler)
	m.Natives.Register(NativeMallocHost, rt.mallocNative(func() *kernel.Bump { return prog.HostHeap }))
	m.Natives.Register(NativeMallocNxP, rt.mallocNative(func() *kernel.Bump { return prog.NxPHeap }))
	m.Natives.Register(NativeMallocNxPFromHost, rt.mallocNative(func() *kernel.Bump { return prog.NxPHeap }))

	// Host side: NX instruction faults targeting any board ISA's text
	// redirect into the host migration handler.
	m.Kernel.SetMigrationRedirect(func(t *kernel.Task, f *cpu.Fault) (uint64, bool) {
		if target, ok := prog.Image.TextISA(f.VA); ok && registered[target] {
			rt.stats.NXFaults++
			return rt.hostHandlerVA, true
		}
		return 0, false
	})
	// Board side: wrong-ISA and misaligned fetch faults redirect into the
	// faulting core's migration handler; each board core gets a scheduler.
	for _, st := range rt.states {
		st := st
		st.core.SetFaultHandler(rt.boardFault)
		m.Env.SpawnDaemon(st.core.Name()+"-scheduler", func(p *sim.Proc) {
			rt.schedulerLoop(p, st)
		})
	}

	// Publish the runtime's migration counters. Gauge-based over the stats
	// the runtime already maintains, so the call paths stay untouched.
	reg := m.Env.Metrics()
	reg.Gauge("flick.h2n_calls", func() uint64 { return uint64(rt.stats.H2NCalls) })
	reg.Gauge("flick.n2h_calls", func() uint64 { return uint64(rt.stats.N2HCalls) })
	reg.Gauge("flick.nx_faults", func() uint64 { return uint64(rt.stats.NXFaults) })
	return rt, nil
}

// Stats returns the migration counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// SetPIODescriptors switches every board's descriptor transport from the
// single-burst DMA to programmed I/O, the ablation of §IV-B1's design
// choice.
func (rt *Runtime) SetPIODescriptors(v bool) {
	for _, mb := range rt.Mboxes {
		mb.SetPIO(v)
	}
}

// boardFault is the board cores' exception handler: wrong-ISA and
// misaligned fetches whose target is some *other* ISA's text become
// migrations (§IV-B2); anything else is fatal. Calls to a sibling board
// ISA route through the host, which re-faults and migrates onward — the
// recursive handler structure needs no special casing for it.
func (rt *Runtime) boardFault(p *sim.Proc, c *cpu.Core, f *cpu.Fault) error {
	st := rt.board[c]
	if st == nil {
		return f
	}
	if f.Spurious {
		// Injected ghost fault from a stale translation: pay the fault
		// entry, flush the page everywhere, and resume at the same PC.
		p.Sleep(rt.Costs.NxPFaultEntry)
		rt.K.ShootdownPage(p, f.VA)
		return nil
	}
	if f.Kind == cpu.FaultFetchNX || f.Kind == cpu.FaultFetchMisaligned {
		if target, ok := rt.Prog.Image.TextISA(f.VA); ok && target != c.ISA() {
			p.Sleep(rt.Costs.NxPFaultEntry)
			st.faultAddr = f.VA
			c.Context().PC = st.handlerVA
			rt.M.Env.Emit(sim.Event{Comp: c.Name(), Kind: sim.KindFault, Addr: f.VA, Aux: st.handlerVA, Note: f.Kind.String() + " → board handler"})
			return nil
		}
	}
	return f
}

// schedulerLoop is a board core's scheduler (§IV-B1): it discovers
// migrated-in threads via the DMA status register, context-switches them
// in, runs the target function, and ships the return descriptor back.
func (rt *Runtime) schedulerLoop(p *sim.Proc, st *boardState) {
	core := st.core
	for {
		slot := st.mbox.WaitH2NUnclaimed(p, core.ISA())
		p.Sleep(rt.Costs.NxPDispatch)
		rt.readStatusReg(p, st.mbox)
		d := rt.readDescNxP(p, st.mbox.H2NRingLocal(slot))
		if d.Kind != DescCall {
			rt.M.Env.Emit(sim.Event{Comp: core.Name(), Kind: sim.KindSched, Aux: uint64(d.PID), Note: "unexpected descriptor at top level"})
			continue
		}
		rt.stats.H2NCalls++
		rt.M.Env.Emit(sim.Event{Comp: core.Name(), Kind: sim.KindMigrate, Addr: d.Target, Aux: uint64(d.PID), Note: "h2n"})
		p.Sleep(rt.Costs.NxPContextSwitch)
		// One context per board scheduler, reset per call. Nothing retains
		// it past the Call: the return value travels by descriptor, and the
		// next iteration's context switch would clobber real hardware state
		// just the same.
		if st.schedCtx == nil {
			st.schedCtx = &cpu.Context{}
		}
		ctx := st.schedCtx
		*ctx = cpu.Context{}
		ctx.SetReg(isa.SP, d.NxPStack)
		core.SetContext(ctx)
		st.curPID = d.PID
		st.busy = true
		ret, err := core.Call(p, d.Target, d.Args[0], d.Args[1], d.Args[2], d.Args[3], d.Args[4], d.Args[5])
		if err != nil {
			rt.failTask(d.PID, err)
			ret = 0
		}
		rt.sendReturnToHost(p, st.mbox, d.PID, ret)
		st.busy = false
	}
}

// failTask records a fatal NxP-side error on the owning task so the host
// handler aborts when it wakes.
func (rt *Runtime) failTask(pid uint32, err error) {
	if t, ok := rt.K.TaskByPID(int(pid)); ok {
		t.Err = fmt.Errorf("core: error during NxP execution: %w", err)
	}
	rt.M.Env.Emit(sim.Event{Comp: "runtime", Kind: sim.KindSched, Aux: uint64(pid), Note: "task failed on board"})
}

// sendReturnToHost stages and ships an NxP→host return descriptor via the
// given board's mailbox.
func (rt *Runtime) sendReturnToHost(p *sim.Proc, mb *Mailbox, pid uint32, ret uint64) {
	p.Sleep(rt.Costs.NxPHandlerWork)
	d := Descriptor{Kind: DescReturn, PID: pid, RetVal: ret}
	local, slot, seq := mb.StageN2HSlot(p)
	d.Seq = seq
	rt.writeDescNxP(p, local, d)
	rt.ringDoorbell(p, mb, regN2HDoorbell, slot)
}

// --- timed descriptor and register accesses ------------------------------

// writeDescHost writes a descriptor into host DRAM, charging the host
// core's local-memory cost per word.
func (rt *Runtime) writeDescHost(p *sim.Proc, pa uint64, d Descriptor) {
	p.Sleep(sim.Duration(DescSize/8) * rt.M.Params.HostDRAMAccess)
	rt.descBuf = d.Encode()
	if err := rt.M.HostView.Write(pa, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: staging write: %v", err))
	}
}

// readDescHost reads a descriptor from host DRAM with host-side timing.
// The bytes are taken before the time is charged: the arrival slot was
// released by TakeN2H and may be restaged while the read is priced.
func (rt *Runtime) readDescHost(p *sim.Proc, pa uint64) Descriptor {
	if err := rt.M.HostView.Read(pa, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: arrival read: %v", err))
	}
	d, err := DecodeDescriptor(rt.descBuf[:])
	if err != nil {
		panic(fmt.Sprintf("core: arrival decode: %v", err))
	}
	p.Sleep(sim.Duration(DescSize/8) * rt.M.Params.HostDRAMAccess)
	return d
}

// nxpDescWordCost prices one 8-byte descriptor access from the NxP side:
// local BRAM is 2 cycles; host DRAM (the PIO ablation's path) crosses the
// link per word — exactly the cost the paper's single-burst DMA avoids.
func (rt *Runtime) nxpDescWordCost(pa uint64, write bool) sim.Duration {
	if pa >= platform.LocalBRAMBase {
		return rt.M.Params.NxPBRAMAccess
	}
	if write {
		return rt.M.Params.Link.WriteLatency(8)
	}
	return rt.M.Params.Link.ReadLatency(8) + rt.M.Params.HostDRAMDevice
}

// writeDescNxP writes a descriptor word-by-word from the NxP side.
func (rt *Runtime) writeDescNxP(p *sim.Proc, localPA uint64, d Descriptor) {
	p.Sleep(sim.Duration(DescSize/8) * rt.nxpDescWordCost(localPA, true))
	rt.descBuf = d.Encode()
	if err := rt.M.NxPView.Write(localPA, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: descriptor write: %v", err))
	}
}

// readDescNxP reads a descriptor word-by-word with NxP timing.
func (rt *Runtime) readDescNxP(p *sim.Proc, localPA uint64) Descriptor {
	p.Sleep(sim.Duration(DescSize/8) * rt.nxpDescWordCost(localPA, false))
	if err := rt.M.NxPView.Read(localPA, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: descriptor read: %v", err))
	}
	d, err := DecodeDescriptor(rt.descBuf[:])
	if err != nil {
		panic(fmt.Sprintf("core: descriptor decode: %v", err))
	}
	return d
}

// ringDoorbell performs a timed register write to one board's mailbox
// register file.
func (rt *Runtime) ringDoorbell(p *sim.Proc, mb *Mailbox, reg uint64, slot int) {
	p.Sleep(rt.M.Params.RegsAccess)
	if err := rt.M.NxPView.WriteU64(mb.regsLocal+reg, uint64(slot)); err != nil {
		panic(fmt.Sprintf("core: doorbell: %v", err))
	}
}

// readStatusReg performs a timed read of one board's DMA status register,
// the scheduler's poll.
func (rt *Runtime) readStatusReg(p *sim.Proc, mb *Mailbox) uint64 {
	p.Sleep(rt.M.Params.RegsAccess)
	v, err := rt.M.NxPView.ReadU64(mb.regsLocal + regH2NCount)
	if err != nil {
		panic(fmt.Sprintf("core: status read: %v", err))
	}
	return v
}

// mallocNative builds the allocator native for one heap.
func (rt *Runtime) mallocNative(heap func() *kernel.Bump) cpu.NativeFunc {
	return func(p *sim.Proc, c *cpu.Core) error {
		h := heap()
		if h == nil {
			return fmt.Errorf("core: malloc: no heap on this platform")
		}
		c.ChargeCycles(p, 40) // allocator bookkeeping
		size := c.Context().Reg(isa.A0)
		va, err := h.Alloc(size, 16)
		if err != nil {
			return err
		}
		c.Context().SetReg(isa.A0, va)
		return nil
	}
}
