package core_test

import (
	"strings"
	"testing"

	"flick"
	"flick/internal/asm"
	"flick/internal/kernel"
	"flick/internal/multibin"
	"flick/internal/platform"
	"flick/internal/sim"
)

// build compiles a dual-ISA program on the default machine.
func build(t *testing.T, src string) *flick.System {
	t.Helper()
	sys, err := flick.Build(flick.Config{Sources: map[string]string{"test.fasm": src}})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHostToNxPCallMigration(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi a0, 41
    call on_nxp      ; cross-ISA: NX fault → Flick migration
    halt
.endfunc

.func on_nxp isa=nxp
    addi a0, a0, 1
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("ret = %d, want 42", ret)
	}
	st := sys.Runtime.Stats()
	if st.H2NCalls != 1 || st.NXFaults != 1 {
		t.Errorf("stats = %+v, want one H2N call from one NX fault", st)
	}
	// One migration round trip should dominate: total time in the
	// 15-60 µs range (includes first-call stack init and cold TLB walks).
	if now := sys.Now(); now < sim.Time(10*sim.Microsecond) || now > sim.Time(80*sim.Microsecond) {
		t.Errorf("virtual time = %v, outside the single-migration window", now)
	}
}

func TestArgumentsCrossTheBoundary(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi a0, 1
    movi a1, 2
    movi a2, 3
    movi a3, 4
    movi a4, 5
    movi a5, 6
    call sum6        ; all six argument registers migrate in the descriptor
    halt
.endfunc

.func sum6 isa=nxp
    add a0, a0, a1
    add a0, a0, a2
    add a0, a0, a3
    add a0, a0, a4
    add a0, a0, a5
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 21 {
		t.Errorf("sum = %d, want 21", ret)
	}
}

func TestNxPCallsHostFunction(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi a0, 10
    call nxp_work
    halt
.endfunc

.func nxp_work isa=nxp
    push ra
    addi a0, a0, 5     ; 15
    call host_helper   ; NxP→host migration
    addi a0, a0, 7     ; back on NxP
    pop ra
    ret
.endfunc

.func host_helper isa=host
    muli a0, a0, 2     ; 30
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 37 {
		t.Errorf("ret = %d, want 37", ret)
	}
	st := sys.Runtime.Stats()
	if st.H2NCalls != 1 || st.N2HCalls != 1 {
		t.Errorf("stats = %+v, want 1 call each way", st)
	}
}

func TestNestedBidirectionalRecursion(t *testing.T) {
	// Cross-ISA mutual recursion: host_down(n) calls nxp_down(n-1) calls
	// host_down(n-2)... summing the levels. Exercises reentrant handlers
	// and per-ISA stacks exactly as §IV-B's "nested bidirectional
	// function calls".
	sys := build(t, `
.func main isa=host
    movi a0, 6
    call host_down
    halt
.endfunc

.func host_down isa=host
    beq a0, zr, done
    push ra
    push a0
    addi a0, a0, -1
    call nxp_down          ; host → NxP
    pop t0
    add a0, a0, t0
    pop ra
    ret
done:
    movi a0, 0
    ret
.endfunc

.func nxp_down isa=nxp
    beq a0, zr, done
    push ra
    push a0
    addi a0, a0, -1
    call host_down         ; NxP → host
    pop t0
    add a0, a0, t0
    pop ra
    ret
done:
    movi a0, 0
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 21 { // 6+5+4+3+2+1
		t.Errorf("ret = %d, want 21", ret)
	}
	st := sys.Runtime.Stats()
	if st.H2NCalls != 3 || st.N2HCalls != 3 {
		t.Errorf("stats = %+v, want 3 calls each way", st)
	}
}

func TestRepeatedMigrationsReuseNxPStack(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi t5, 0        ; accumulator
    movi t4, 8        ; iterations
loop:
    mov  a0, t4
    call nxp_id
    add  t5, t5, a0
    addi t4, t4, -1
    bne  t4, zr, loop
    mov  a0, t5
    halt
.endfunc

.func nxp_id isa=nxp
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 36 {
		t.Errorf("ret = %d, want 36", ret)
	}
	st := sys.Runtime.Stats()
	if st.H2NCalls != 8 {
		t.Errorf("H2NCalls = %d, want 8", st.H2NCalls)
	}
}

func TestPointerSharingAcrossISAs(t *testing.T) {
	// The unified address space: the host writes a buffer in NxP DRAM
	// (allocated with the NxP allocator via a host pointer is not the
	// point here — use a static .data.nxp block), the NxP reads and
	// transforms it in place, the host verifies — no marshalling anywhere.
	sys := build(t, `
.func main isa=host
    la   t0, shared
    movi t1, 7
    st8  t1, [t0+0]
    movi t1, 35
    st8  t1, [t0+8]
    mov  a0, t0          ; pass the raw pointer across the ISA boundary
    call nxp_sum_pair
    halt
.endfunc

.func nxp_sum_pair isa=nxp
    ld8 t0, [a0+0]
    ld8 t1, [a0+8]
    add a0, t0, t1
    ret
.endfunc

.data shared isa=nxp align=8
    .word64 0, 0
.enddata
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("ret = %d, want 42", ret)
	}
}

func TestPerISAMalloc(t *testing.T) {
	// `call malloc` binds to the host allocator in host text and to the
	// NxP allocator in NxP text (§III-D). The two pointers must land in
	// different regions: host heap below 1 GiB, NxP window at 16 GiB.
	sys := build(t, `
.func main isa=host
    movi a0, 64
    call malloc          ; host allocator
    mov  t5, a0
    call nxp_alloc
    mov  a1, a0          ; nxp pointer
    mov  a0, t5          ; host pointer
    call classify
    halt
.endfunc

.func nxp_alloc isa=nxp
    push ra
    movi a0, 64
    call malloc          ; NxP allocator
    pop ra
    ret
.endfunc

.func classify isa=host
    ; a0 host ptr, a1 nxp ptr: return 1 if a0 < 1G <= a1
    li   t0, 0x40000000
    sltu t1, a0, t0      ; host ptr below 1G
    sltu t2, a1, t0
    xori t2, t2, 1       ; nxp ptr at/above 1G
    and  a0, t1, t2
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 1 {
		t.Error("per-ISA malloc routed pointers to the wrong regions")
	}
}

func TestNxPFatalErrorPropagates(t *testing.T) {
	sys := build(t, `
.func main isa=host
    call bad_nxp
    halt
.endfunc

.func bad_nxp isa=nxp
    udiv a0, a0, zr      ; divide by zero on the NxP
    ret
.endfunc
`)
	_, err := sys.RunProgram("main")
	if err == nil || !strings.Contains(err.Error(), "NxP execution") {
		t.Errorf("err = %v, want NxP execution error", err)
	}
}

func TestStrayJumpIntoDataStillFatal(t *testing.T) {
	// An NX fault whose target is NOT NxP text must not migrate: it is a
	// plain crash (the kernel checks the segment map).
	sys := build(t, `
.func main isa=host
    la   t0, blob
    callr t0             ; jump into data
    halt
.endfunc
.func unused isa=nxp
    ret
.endfunc
.data blob isa=host
    .word64 0
.enddata
`)
	_, err := sys.RunProgram("main")
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("err = %v, want fatal fault", err)
	}
	if sys.Runtime.Stats().NXFaults != 0 {
		t.Error("data jump was treated as a migration")
	}
}

func TestConsoleSyscallsWork(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi a0, 'h'
    sys  2
    movi a0, 'i'
    sys  2
    movi a0, 1234
    sys  3
    movi a0, 0
    halt
.endfunc
`)
	if _, err := sys.RunProgram("main"); err != nil {
		t.Fatal(err)
	}
	if got := sys.Console(); got != "hi1234\n" {
		t.Errorf("console = %q", got)
	}
}

func TestEagerDMATriggerRace(t *testing.T) {
	// Ablation of §IV-D: firing the descriptor DMA before the thread is
	// suspended loses the wakeup when the NxP round trip beats the
	// deschedule path, deadlocking the thread. This is the race the
	// paper's scheduler-flag design exists to prevent.
	sys := build(t, `
.func main isa=host
    call fastfn
    halt
.endfunc
.func fastfn isa=nxp
    ret
.endfunc
`)
	sys.Kernel.EagerDMATrigger = true
	// Make the race window certain: deschedule slower than the entire
	// NxP round trip, so the return descriptor's wake arrives while the
	// thread is still being descheduled.
	costs := sys.Kernel.Costs()
	costs.ContextSwitchAway = 500 * sim.Microsecond
	sys.Kernel.SetCosts(costs)
	_, err := sys.RunProgram("main")
	if err == nil || !strings.Contains(err.Error(), "suspended") {
		t.Errorf("err = %v, want thread stuck in suspended state (lost wakeup)", err)
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	// Exercised via the package's exported codec.
	sys := build(t, `
.func main isa=host
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`)
	_ = sys
}

func TestThreadEntryMustBeHost(t *testing.T) {
	sys := build(t, `
.func main isa=host
    halt
.endfunc
.func nxpfn isa=nxp
    ret
.endfunc
`)
	if _, err := sys.Start("nxpfn"); err == nil {
		t.Error("starting a thread on NxP text was allowed")
	}
}

func TestTaskStateAfterCompletion(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi a0, 5
    sys 1              ; exit(5)
.endfunc
`)
	task, err := sys.Start("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if task.State != kernel.TaskDone || task.ExitCode != 5 {
		t.Errorf("task = state %v exit %d", task.State, task.ExitCode)
	}
}

func TestFunctionPointerMigration(t *testing.T) {
	// §III-B's key argument for fault-triggered migration: a call through
	// a function pointer can target either ISA, and no compiler can know
	// which. Here main calls through a pointer table containing one host
	// and one NxP function; both must work, and only the NxP one migrates.
	sys := build(t, `
.func main isa=host
    la   t3, fntable
    ld8  t0, [t3+0]     ; host function pointer
    movi a0, 10
    callr t0
    mov  t5, a0         ; 20
    ld8  t0, [t3+8]     ; NxP function pointer
    mov  a0, t5
    callr t0            ; indirect cross-ISA call → NX fault → migration
    halt
.endfunc

.func on_host isa=host
    add a0, a0, a0
    ret
.endfunc

.func on_nxp isa=nxp
    addi a0, a0, 1
    ret
.endfunc

.data fntable isa=host align=8
    .addr on_host
    .addr on_nxp
.enddata
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 21 {
		t.Errorf("ret = %d, want 21", ret)
	}
	if st := sys.Runtime.Stats(); st.H2NCalls != 1 {
		t.Errorf("indirect cross-ISA call produced %d migrations, want 1", st.H2NCalls)
	}
}

func TestPIODescriptorsStillCorrect(t *testing.T) {
	// The PIO ablation changes timing, never semantics.
	sys := build(t, `
.func main isa=host
    movi a0, 3
    call f
    halt
.endfunc
.func f isa=nxp
    push ra
    call g              ; nested N2H under PIO too
    addi a0, a0, 100
    pop ra
    ret
.endfunc
.func g isa=host
    muli a0, a0, 7
    ret
.endfunc
`)
	sys.Runtime.SetPIODescriptors(true)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 121 {
		t.Errorf("ret = %d, want 121", ret)
	}
}

func TestPIOSlowerThanDMA(t *testing.T) {
	run := func(pio bool) sim.Time {
		sys := build(t, `
.func main isa=host
    movi t0, 20
l:
    call f
    addi t0, t0, -1
    bne t0, zr, l
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`)
		sys.Runtime.SetPIODescriptors(pio)
		if _, err := sys.RunProgram("main"); err != nil {
			t.Fatal(err)
		}
		return sys.Now()
	}
	dma, pio := run(false), run(true)
	if pio <= dma {
		t.Errorf("PIO (%v) not slower than DMA (%v)", pio, dma)
	}
}

// TestPIOCoversEveryBoard runs the PIO ablation on a two-board machine:
// two host tasks are placed round-robin, so both boards serve calls, and
// no descriptor may cross on either board's DMA engine.
func TestPIOCoversEveryBoard(t *testing.T) {
	params := platform.DefaultParams()
	params.Boards = 2
	params.HostCores = 2
	sys, err := flick.Build(flick.Config{
		Params: &params,
		Sources: map[string]string{"t.fasm": `
.func main isa=host
    movi t0, 6
l:
    call f
    addi t0, t0, -1
    bne t0, zr, l
    movi a0, 0
    sys 1
.endfunc
.func f isa=nxp
    ret
.endfunc
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Runtime.SetPIODescriptors(true)
	var tasks []*kernel.Task
	for i := 0; i < 2; i++ {
		task, err := sys.Start("main")
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if task.Err != nil || task.State != kernel.TaskDone {
			t.Fatalf("task %d: state %v, err %v", i, task.State, task.Err)
		}
	}
	for i, mb := range sys.Runtime.Mboxes {
		if h2n, _ := mb.Stats(); h2n == 0 {
			t.Errorf("board %d served no calls; the check below would be vacuous for it", i)
		}
	}
	snap := sys.Report().Metrics
	for _, name := range []string{"dma.transfers", "dma1.transfers"} {
		if got := snap.Counter(name); got != 0 {
			t.Errorf("%s = %d with PIO descriptors, want 0", name, got)
		}
	}
}

func TestMigrationTraceEvents(t *testing.T) {
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"t.fasm": `
.func main isa=host
    call f
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`},
		Obs: &sim.Observer{TraceCap: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunProgram("main"); err != nil {
		t.Fatal(err)
	}
	tr := sys.Machine.Env.Trace()
	if len(tr.Filter(sim.KindFault)) != 1 {
		t.Errorf("fault events = %d", len(tr.Filter(sim.KindFault)))
	}
	if got := len(tr.Filter(sim.KindDMA)); got != 2 {
		t.Errorf("dma events = %d, want 2 (one descriptor each way)", got)
	}
}

func TestMailboxCountsMatchStats(t *testing.T) {
	sys := build(t, `
.func main isa=host
    movi t0, 5
l:
    call f
    addi t0, t0, -1
    bne t0, zr, l
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`)
	if _, err := sys.RunProgram("main"); err != nil {
		t.Fatal(err)
	}
	h2n, n2h := sys.Runtime.Mboxes[0].Stats()
	if h2n != 5 || n2h != 5 {
		t.Errorf("mailbox sent %d/%d, want 5/5", h2n, n2h)
	}
}

func TestManySequentialMigratingThreads(t *testing.T) {
	// Several tasks run FIFO on the host core, each migrating; results are
	// independent, and each exited task's board stack is released for the
	// next task to recycle (bounded BRAM under open-loop traffic).
	sys := build(t, `
.func main isa=host
    call f
    sys  1
.endfunc
.func f isa=nxp
    muli a0, a0, 3
    ret
.endfunc
`)
	var tasks []*kernel.Task
	for i := uint64(1); i <= 4; i++ {
		task, err := sys.Start("main", i*10)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		want := uint64(i+1) * 30
		if task.Err != nil || task.ExitCode != want {
			t.Errorf("task %d: exit %d (err %v), want %d", i, task.ExitCode, task.Err, want)
		}
	}
	for i, task := range tasks {
		if len(task.BoardStacks) != 0 {
			t.Errorf("task %d still holds board stacks after exit: %v", i, task.BoardStacks)
		}
	}
	// Recycling means four sequential tasks consumed only one 64 KiB BRAM
	// stack slot between them: the next allocation pops that recycled slot
	// and the one after is the region's second-ever fresh slot, one stack
	// size away.
	a1, err := sys.Program.AllocNxPStack()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := sys.Program.AllocNxPStack()
	if err != nil {
		t.Fatal(err)
	}
	diff := a1 - a2
	if a2 > a1 {
		diff = a2 - a1
	}
	if diff != 64<<10 {
		t.Errorf("stack slots %#x and %#x are %d bytes apart, want one 64 KiB slot (recycling broken)", a1, a2, diff)
	}
}

func TestAnnotatedAllocationFromHost(t *testing.T) {
	// §III-D: "if software developers want to allocate memory in a
	// particular memory region, the allocation can be annotated" — host
	// code calls nxp_malloc to place data in board DRAM (no migration),
	// initializes it over PCIe, and the NxP then works on it locally.
	sys := build(t, `
.func main isa=host
    movi a0, 64
    call nxp_malloc      ; host-side allocation in the NxP region
    mov  t3, a0
    movi t0, 19
    st8  t0, [t3+0]      ; host initializes across the link
    movi t0, 23
    st8  t0, [t3+8]
    mov  a0, t3
    call nxp_sum2        ; NxP consumes it locally
    halt
.endfunc
.func nxp_sum2 isa=nxp
    ld8 t0, [a0+0]
    ld8 t1, [a0+8]
    add a0, t0, t1
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("ret = %d, want 42", ret)
	}
	if st := sys.Runtime.Stats(); st.H2NCalls != 1 {
		t.Errorf("nxp_malloc must not migrate; migrations = %d", st.H2NCalls)
	}
}

func TestPrecompiledLibraryCalledFromBothISAs(t *testing.T) {
	// §III-B: programs routinely call pre-compiled libraries that contain
	// no migration code, which breaks compiler-inserted-stub designs.
	// With fault-triggered migration a library function just works from
	// either side: called from host code it is a plain call; called from
	// NxP code the fetch faults and the thread migrates.
	library, err := asm.Assemble("libmath.fasm", `
; A "pre-compiled" host-ISA library: no annotations, no stubs.
.func lib_square isa=host
    mul a0, a0, a0
    ret
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"app.fasm": `
.func main isa=host
    movi a0, 3
    call lib_square      ; host → host: ordinary call
    mov  t5, a0          ; 9
    mov  a0, t5
    call nxp_user
    halt
.endfunc

.func nxp_user isa=nxp
    push ra
    addi a0, a0, 1       ; 10, on the NxP
    call lib_square      ; NxP → host library: migrates transparently
    pop  ra
    ret                  ; 100
.endfunc
`},
		Objects: []*multibin.Object{library},
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 100 {
		t.Errorf("ret = %d, want 100", ret)
	}
	st := sys.Runtime.Stats()
	if st.N2HCalls != 1 {
		t.Errorf("library call from NxP caused %d migrations, want exactly 1", st.N2HCalls)
	}
}

func TestStdlibPerISARouting(t *testing.T) {
	// memcpy/memset/strlen bind per caller ISA: NxP code copying board
	// DRAM must not migrate for the copy.
	sys := build(t, `
.func main isa=host
    la   a0, dsthost
    la   a1, msg
    movi a2, 6
    call memcpy          ; host variant
    la   a0, dsthost
    call strlen          ; host variant: "hello" is NUL-terminated → 5
    mov  t5, a0
    call nxp_copy        ; one migration; copies within board DRAM
    add  a0, a0, t5      ; 5 + 5
    halt
.endfunc

.func nxp_copy isa=nxp
    push ra
    la   a0, dstnxp
    la   a1, msgnxp
    movi a2, 6
    call memcpy          ; nxp variant: stays on the NxP
    la   a0, dstnxp
    call strlen          ; nxp variant
    pop  ra
    ret
.endfunc

.data msg isa=host
    .ascii "hello"
    .byte 0
.enddata
.data dsthost isa=host
    .zero 16
.enddata
.data msgnxp isa=nxp
    .ascii "world"
    .byte 0
.enddata
.data dstnxp isa=nxp
    .zero 16
.enddata
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 10 {
		t.Errorf("ret = %d, want 10", ret)
	}
	if st := sys.Runtime.Stats(); st.H2NCalls != 1 || st.N2HCalls != 0 {
		t.Errorf("stdlib calls migrated: %+v", st)
	}
}

func TestStdlibPrintAndMemset(t *testing.T) {
	sys := build(t, `
.func main isa=host
    la   a0, buf
    movi a1, '!'
    movi a2, 3
    call memset
    la   a0, hello
    call print_str
    la   a0, buf
    call print_str
    movi a0, 0
    halt
.endfunc
.data hello isa=host
    .ascii "hi "
    .byte 0
.enddata
.data buf isa=host
    .zero 8
.enddata
`)
	if _, err := sys.RunProgram("main"); err != nil {
		t.Fatal(err)
	}
	if got := sys.Console(); got != "hi !!!" {
		t.Errorf("console = %q", got)
	}
}
