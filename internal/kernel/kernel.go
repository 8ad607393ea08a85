package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"flick/internal/cpu"
	"flick/internal/faultinj"
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/paging"
	"flick/internal/sim"
)

// System call numbers (the `sys imm` immediate).
const (
	SysExit   = 1 // a0 = exit code
	SysPutc   = 2 // a0 = byte to write to the console
	SysPutU64 = 3 // a0 = value printed in decimal with a newline
	SysNowNS  = 4 // returns virtual nanoseconds since boot in a0
)

// Config assembles a kernel.
type Config struct {
	Env    *sim.Env
	Phys   *mem.AddressSpace // host view of physical memory
	Alloc  *paging.FrameAlloc
	Tables *paging.Tables
	Costs  Costs
	Layout Layout
	// Faults enables fault injection and the recovery machinery that
	// answers it (migration timeouts, wake validation, IPI retries).
	// Nil (the default) keeps the perfect-hardware fast path: no timers
	// are armed and no recovery counters are registered.
	Faults *faultinj.Injector
	// Recovery tunes the retry/timeout parameters; zero fields take
	// DefaultRecovery values.
	Recovery Recovery
	// Boards is the NxP board count the board scheduler places over;
	// values < 1 mean one board.
	Boards int
	// BoardPolicy selects the placement policy (zero value: round-robin).
	BoardPolicy BoardPolicy
	// BoardISAs lists the core families present on each board (index i →
	// board i), making the board scheduler capability-aware. Nil keeps
	// every board eligible for every migration.
	BoardISAs [][]isa.ISA
	// TrafficMetrics registers the traffic plane's instruments: the
	// migration-latency histogram, the run-queue depth gauges, and the
	// per-board dispatch/queue/busy gauges (see docs/TRAFFIC.md). Off by
	// default so baseline metrics snapshots carry no new keys.
	TrafficMetrics bool
}

// Recovery parameterizes the migration protocol's failure handling.
type Recovery struct {
	// MigrationTimeout bounds one suspend-wait before the kernel probes
	// the arrival buffer for a descriptor whose MSI may have been lost.
	MigrationTimeout sim.Duration
	// MaxRetries bounds the timeout-probe cycles before the migration is
	// declared failed and the task gets a MigrationTimeoutError.
	MaxRetries int
	// IPIDeliver is the modeled latency of one shootdown IPI (and of the
	// ack wait after a lost one).
	IPIDeliver sim.Duration
	// IPIRetries bounds re-sends of an unacknowledged shootdown IPI.
	IPIRetries int
}

// DefaultRecovery returns the calibrated failure-handling parameters:
// the migration timeout is ~10× a worst-case null-call round trip, so
// false timeouts cannot occur on the fault-free path.
func DefaultRecovery() Recovery {
	return Recovery{
		MigrationTimeout: 200 * sim.Microsecond,
		MaxRetries:       10,
		IPIDeliver:       2 * sim.Microsecond,
		IPIRetries:       10,
	}
}

func (r Recovery) withDefaults() Recovery {
	d := DefaultRecovery()
	if r.MigrationTimeout == 0 {
		r.MigrationTimeout = d.MigrationTimeout
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = d.MaxRetries
	}
	if r.IPIDeliver == 0 {
		r.IPIDeliver = d.IPIDeliver
	}
	if r.IPIRetries == 0 {
		r.IPIRetries = d.IPIRetries
	}
	return r
}

// ProbeState is the migration probe's verdict on a suspended task's
// in-flight migration.
type ProbeState int

const (
	// ProbeIdle: no arrival descriptor and no sign of remote activity for
	// the task. Consecutive idle windows count toward the migration
	// timeout.
	ProbeIdle ProbeState = iota
	// ProbeBusy: the migration is alive remotely — the callee is still
	// executing, queued for dispatch, or blocked mid-protocol. The kernel
	// keeps waiting without consuming timeout budget: a slow callee is not
	// a lost wake.
	ProbeBusy
	// ProbeReady: a return descriptor is pending in the arrival buffer.
	// A wake with this state is valid; a timeout with this state means the
	// MSI was lost and the wake can be recovered locally.
	ProbeReady
)

// MigrationTimeoutError is the typed failure a task carries when every
// retry of a migration wait expired without a descriptor arriving.
type MigrationTimeoutError struct {
	PID      int
	Attempts int
	Waited   sim.Duration
}

func (e *MigrationTimeoutError) Error() string {
	return fmt.Sprintf("kernel: migration for pid %d timed out after %d waits (%v total)", e.PID, e.Attempts, e.Waited)
}

// ShootdownTarget is one remote TLB set reached by shootdown IPIs.
type ShootdownTarget struct {
	Name  string
	Flush func(va uint64)
}

// MigrationRedirect decides what to do with an instruction NX fault: if it
// returns (handlerVA, true), the kernel redirects the thread's PC to
// handlerVA after saving the faulting address in the task struct. The
// Flick runtime registers this hook.
type MigrationRedirect func(t *Task, f *cpu.Fault) (uint64, bool)

// Kernel is the simulated host operating system.
type Kernel struct {
	env    *sim.Env
	phys   *mem.AddressSpace
	alloc  *paging.FrameAlloc
	tables *paging.Tables
	costs  Costs
	layout Layout

	hosts   []*cpu.Core
	program *Program

	nextPID int
	tasks   map[int]*Task
	runq    []*Task
	runqC   *sim.Cond
	current map[*cpu.Core]*Task

	redirect MigrationRedirect
	console  bytes.Buffer

	inj      *faultinj.Injector
	recovery Recovery
	// probe reports the liveness of pid's in-flight migration — the
	// MSI-loss recovery path, and the validator that rejects wakes raised
	// by a late MSI from an earlier migration.
	probe     func(pid int) ProbeState
	shootdown []ShootdownTarget
	boards    *BoardScheduler

	// EagerDMATrigger reproduces the race of paper §IV-D when set: the
	// migration trigger fires before the thread's suspended state is
	// published, so a fast NxP round trip loses the wakeup. For ablation
	// only.
	EagerDMATrigger bool

	faults int

	mSyscalls    *sim.Counter
	mCtxSwitches *sim.Counter
	mIRQs        *sim.Counter

	// Recovery counters, registered only under fault injection (nil
	// otherwise — sim.Counter methods are nil-safe), so baseline metrics
	// snapshots carry no new keys.
	mMigRetries    *sim.Counter
	mMigTimeouts   *sim.Counter
	mSpuriousWakes *sim.Counter
	mShootIPIs     *sim.Counter
	mShootRetries  *sim.Counter

	// mFailovers is registered only on multi-board platforms, so
	// single-board metrics snapshots carry no new keys.
	mFailovers *sim.Counter

	// Traffic-plane instruments, registered only under Config.
	// TrafficMetrics (nil/untracked otherwise — sim instruments are
	// nil-safe), so baseline metrics snapshots carry no new keys.
	mMigLatency *sim.Histogram // per-suspend migration latency, ns
	runqPeak    int            // deepest run queue ever observed
}

// New creates a kernel and spawns the host core's scheduler loop process.
// The host core must be attached with AttachHostCore before tasks start.
func New(cfg Config) *Kernel {
	k := &Kernel{
		env:      cfg.Env,
		phys:     cfg.Phys,
		alloc:    cfg.Alloc,
		tables:   cfg.Tables,
		costs:    cfg.Costs,
		layout:   cfg.Layout.withDefaults(),
		nextPID:  1,
		tasks:    make(map[int]*Task),
		inj:      cfg.Faults,
		recovery: cfg.Recovery.withDefaults(),
	}
	k.runqC = cfg.Env.NewCond("kernel.runq")
	k.current = make(map[*cpu.Core]*Task)
	reg := cfg.Env.Metrics()
	k.mSyscalls = reg.Counter("kernel.syscalls")
	k.mCtxSwitches = reg.Counter("kernel.context_switches")
	k.mIRQs = reg.Counter("kernel.irqs")
	reg.Gauge("kernel.migrations", func() uint64 { return uint64(k.faults) })
	reg.Gauge("kernel.tasks", func() uint64 { return uint64(k.nextPID - 1) })
	if k.inj != nil {
		k.mMigRetries = reg.Counter("migration.retries")
		k.mMigTimeouts = reg.Counter("migration.timeouts")
		k.mSpuriousWakes = reg.Counter("migration.spurious_wakes")
		k.mShootIPIs = reg.Counter("shootdown.ipis")
		k.mShootRetries = reg.Counter("shootdown.ipi_retries")
	}
	boards := cfg.Boards
	if boards < 1 {
		boards = 1
	}
	k.boards = NewBoardScheduler(cfg.BoardPolicy, boards)
	k.boards.setClock(cfg.Env.Now)
	if cfg.BoardISAs != nil {
		k.boards.SetBoardISAs(cfg.BoardISAs)
	}
	if boards > 1 {
		k.mFailovers = reg.Counter("kernel.failovers")
	}
	if cfg.TrafficMetrics {
		k.mMigLatency = reg.Histogram("migration.latency_ns")
		reg.Gauge("kernel.runq_peak", func() uint64 { return uint64(k.runqPeak) })
		reg.Gauge("kernel.runq_depth", func() uint64 { return uint64(len(k.runq)) })
		for b := 0; b < boards; b++ {
			b := b
			reg.Gauge(fmt.Sprintf("kernel.board%d.dispatches", b), func() uint64 { return k.boards.Dispatches(b) })
			reg.Gauge(fmt.Sprintf("kernel.board%d.peak_inflight", b), func() uint64 { return uint64(k.boards.PeakInFlight(b)) })
			reg.Gauge(fmt.Sprintf("kernel.board%d.busy_ns", b), func() uint64 { return uint64(k.boards.BusyTime(b) / sim.Nanosecond) })
		}
	}
	return k
}

// RunqPeak returns the deepest run queue the kernel has ever carried —
// the backlog high-water mark of an open-loop overload.
func (k *Kernel) RunqPeak() int { return k.runqPeak }

// BoardSched returns the kernel's board scheduler (never nil).
func (k *Kernel) BoardSched() *BoardScheduler { return k.boards }

// RecordFailover counts one migration failed over to another board.
func (k *Kernel) RecordFailover(pid, from, to int) {
	k.mFailovers.Inc()
	k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindFault, Aux: uint64(pid),
		Note: fmt.Sprintf("migration failover board %d → %d", from, to)})
}

// SetMigrationProbe installs the migration liveness check used to
// validate wakes and to recover from lost MSIs. The Flick runtime wires
// it to the mailbox's pending-descriptor table and the board schedulers'
// execution state.
func (k *Kernel) SetMigrationProbe(probe func(pid int) ProbeState) { k.probe = probe }

// SetShootdownTargets registers the TLB sets reached by shootdown IPIs.
func (k *Kernel) SetShootdownTargets(ts []ShootdownTarget) { k.shootdown = ts }

// Recovery returns the effective failure-handling parameters.
func (k *Kernel) Recovery() Recovery { return k.recovery }

// AttachHostCore binds a host core and starts its scheduler process. The
// core's Sys and Fault hooks must already point at this kernel (the
// platform wires them). Call once per host core for SMP configurations;
// idle cores pull tasks from the shared run queue.
func (k *Kernel) AttachHostCore(core *cpu.Core) {
	k.hosts = append(k.hosts, core)
	k.env.SpawnDaemon(core.Name(), func(p *sim.Proc) { k.hostCoreLoop(p, core) })
}

// HostCores returns all attached host cores.
func (k *Kernel) HostCores() []*cpu.Core { return k.hosts }

// Tables returns the kernel's page tables (the shared PTBR of the paper's
// single-process experiments).
func (k *Kernel) Tables() *paging.Tables { return k.tables }

// Phys returns the host view of physical memory.
func (k *Kernel) Phys() *mem.AddressSpace { return k.phys }

// Env returns the simulation environment.
func (k *Kernel) Env() *sim.Env { return k.env }

// Costs returns the kernel cost model.
func (k *Kernel) Costs() Costs { return k.costs }

// SetCosts replaces the kernel cost model (calibration and ablation).
func (k *Kernel) SetCosts(c Costs) { k.costs = c }

// SetMigrationRedirect installs the Flick hook for NX instruction faults.
func (k *Kernel) SetMigrationRedirect(r MigrationRedirect) { k.redirect = r }

// Console returns everything written via SysPutc/SysPutU64.
func (k *Kernel) Console() string { return k.console.String() }

// ConsoleWrite appends to the console from native runtime code.
func (k *Kernel) ConsoleWrite(s string) { k.console.WriteString(s) }

// CurrentTask returns the task running on the first host core — a
// convenience for single-core configurations.
func (k *Kernel) CurrentTask() *Task { return k.current[k.hosts[0]] }

// CurrentTaskOn returns the task running on the given host core.
func (k *Kernel) CurrentTaskOn(c *cpu.Core) *Task { return k.current[c] }

// Faults returns the number of migration-redirected NX faults handled.
func (k *Kernel) Faults() int { return k.faults }

// StartThread creates a task that begins executing at entry with the given
// arguments and queues it for the host core. Flick threads always start on
// the host (paper §IV-B1). The host stack is allocated lazily on first
// dispatch, not here: an open-loop arrival burst may queue tens of
// thousands of tasks, and only the handful actually holding a host core
// need stack memory at any instant (exited tasks recycle theirs).
func (k *Kernel) StartThread(name string, entry uint64, args ...uint64) (*Task, error) {
	if k.program == nil {
		return nil, errors.New("kernel: no program loaded")
	}
	if len(args) > 6 {
		return nil, fmt.Errorf("kernel: %d args exceed the 6-register convention", len(args))
	}
	ctx := &cpu.Context{PC: entry}
	for i, a := range args {
		ctx.SetReg(isa.Reg(i), a)
	}
	t := &Task{
		PID:   k.nextPID,
		Name:  name,
		Ctx:   ctx,
		State: TaskRunnable,
		wake:  k.env.NewCond("task.wake"),
	}
	k.nextPID++
	k.tasks[t.PID] = t
	k.runq = append(k.runq, t)
	if len(k.runq) > k.runqPeak {
		k.runqPeak = len(k.runq)
	}
	k.runqC.Signal()
	return t, nil
}

// TaskByPID resolves a PID (descriptors carry PIDs across the link).
func (k *Kernel) TaskByPID(pid int) (*Task, bool) {
	t, ok := k.tasks[pid]
	return t, ok
}

// hostCoreLoop is one host core's scheduler: run the front task until it
// halts or dies, then take the next. A task suspended in the migration
// ioctl keeps its core blocked — the evaluation platform dedicates a core
// to the benchmark thread, as the paper's does; with several host cores
// attached, other runnable tasks proceed on the remaining cores.
func (k *Kernel) hostCoreLoop(p *sim.Proc, core *cpu.Core) {
	for {
		p.WaitFor(k.runqC, func() bool { return len(k.runq) > 0 })
		// Shift the rest down rather than re-slice past the head, so the
		// queue keeps its backing array and arrivals do not reallocate it.
		t := k.runq[0]
		n := copy(k.runq, k.runq[1:])
		k.runq[n] = nil
		k.runq = k.runq[:n]
		if t.stackTop == 0 && t.State == TaskRunnable {
			// First dispatch: give the task a host stack now (lazily, so a
			// queued backlog holds no stack memory). Recycled stacks keep
			// their existing VA→PA mappings, so reuse maps nothing.
			stack, err := k.program.allocHostStack()
			if err != nil {
				t.Err = err
				t.State = TaskDone
				t.DoneAt = k.env.Now()
				continue
			}
			t.stackTop = stack
			t.Ctx.SetReg(isa.SP, stack)
		}
		k.current[core] = t
		t.State = TaskRunning
		k.mCtxSwitches.Inc()
		k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindCtxSwitch, Aux: uint64(t.PID), Note: core.Name()})
		core.SetContext(t.Ctx)
		// While a task occupies the core its fate matters: drop daemon
		// status so a task stuck forever (e.g. a lost migration wake)
		// surfaces through Env.Deadlocked instead of being silently
		// ignored as service-loop noise.
		p.SetDaemon(false)
		err := core.Run(p, 0)
		p.SetDaemon(true)
		switch {
		case errors.Is(err, cpu.ErrHalted):
			// Plain halt without sys exit.
		case err != nil:
			t.Err = err
		}
		t.State = TaskDone
		t.DoneAt = k.env.Now()
		k.program.releaseTaskStacks(t)
		delete(k.current, core)
	}
}

// Syscall is the host core's SYS handler.
func (k *Kernel) Syscall(p *sim.Proc, c *cpu.Core, num int64) error {
	k.mSyscalls.Inc()
	k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindSyscall, Aux: uint64(num)})
	p.Sleep(k.costs.SyscallEntry)
	defer p.Sleep(k.costs.SyscallExit)
	ctx := c.Context()
	switch num {
	case SysExit:
		if t := k.current[c]; t != nil {
			t.ExitCode = ctx.Reg(isa.A0)
		}
		return cpu.ErrHalted
	case SysPutc:
		k.console.WriteByte(byte(ctx.Reg(isa.A0)))
		return nil
	case SysPutU64:
		k.console.WriteString(strconv.FormatUint(ctx.Reg(isa.A0), 10))
		k.console.WriteByte('\n')
		return nil
	case SysNowNS:
		ctx.SetReg(isa.A0, uint64(p.Now().Duration()/sim.Nanosecond))
		return nil
	default:
		return fmt.Errorf("kernel: unknown syscall %d", num)
	}
}

// AuditStacks verifies stack free-list integrity against the live task
// set: no slot on a free list twice, none both free and held by a live
// task, and no two live tasks sharing a slot. Tests call it after
// failover storms to prove re-dispatch never double-releases a board
// stack (a double release would eventually hand one slot to two tasks).
func (k *Kernel) AuditStacks() error {
	if k.program == nil {
		return nil
	}
	live := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		if t.State != TaskDone {
			live = append(live, t)
		}
	}
	return k.program.auditStacks(live)
}

// StuckTasks describes every task that has started but not finished, for
// deadlock diagnostics — "name[pid N] suspended" style, PID-ordered.
func (k *Kernel) StuckTasks() []string {
	pids := make([]int, 0, len(k.tasks))
	for pid := range k.tasks {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var out []string
	for _, pid := range pids {
		t := k.tasks[pid]
		if t.State == TaskDone {
			continue
		}
		out = append(out, fmt.Sprintf("%s[pid %d] %v", t.Name, t.PID, t.State))
	}
	return out
}

// HostFault is the host core's fault hook. NX instruction faults whose
// target the registered redirect recognizes become migration-handler
// redirects: the faulting address is saved in the task struct and the PC —
// which the hardware left pointing at the cross-ISA function — is replaced
// with the handler's address, Flick's hijack of the in-flight call
// (paper §IV-B1). Everything else is fatal to the task.
func (k *Kernel) HostFault(p *sim.Proc, c *cpu.Core, f *cpu.Fault) error {
	t := k.current[c]
	if f.Spurious {
		// Ghost fault from a stale translation: pay the fault entry,
		// flush the offending page everywhere, and resume at the same
		// PC — the refetch succeeds against the repaired TLBs.
		p.Sleep(k.costs.PageFaultEntry)
		k.ShootdownPage(p, f.VA)
		return nil
	}
	if f.Kind == cpu.FaultFetchNX && k.redirect != nil && t != nil {
		if handler, ok := k.redirect(t, f); ok {
			p.Sleep(k.costs.PageFaultEntry)
			k.faults++
			t.FaultAddr = f.VA
			c.Context().PC = handler
			k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindFault, Addr: f.VA, Aux: handler, Note: "NX fault → migration handler"})
			return nil
		}
	}
	return f
}

// MigrateAndSuspend is the kernel half of the migration ioctl: it charges
// the syscall and deschedule costs, publishes the suspended state, fires
// the descriptor-transfer trigger with the ordering the paper's scheduler
// hook guarantees, and blocks until the DMA interrupt handler wakes the
// task. The returned time is the wake time.
func (k *Kernel) MigrateAndSuspend(p *sim.Proc, t *Task, trigger func()) {
	start := p.Now()
	p.Sleep(k.costs.SyscallEntry)
	if k.EagerDMATrigger {
		// Ablation: fire the DMA before the thread is suspended. If the
		// round trip completes within the deschedule window, the wake is
		// lost and the thread sleeps forever — the race of §IV-D.
		trigger()
		p.Sleep(k.costs.ContextSwitchAway)
		t.State = TaskSuspended
	} else {
		// Paper ordering: suspend first (state published), then let the
		// scheduler fire the deferred trigger from the task's migration
		// flag.
		t.State = TaskSuspended
		t.MigrationTrigger = trigger
		p.Sleep(k.costs.ContextSwitchAway)
		if t.MigrationTrigger != nil {
			t.MigrationTrigger()
			t.MigrationTrigger = nil
		}
	}
	k.waitMigration(p, t)
	// Woken by the IRQ handler: charge the scheduler's wake-to-run path
	// and the syscall return.
	p.Sleep(k.costs.WakeupSchedule)
	p.Sleep(k.costs.SyscallExit)
	// One suspend leg of the migration, entry to return — what the caller
	// experiences as the ISA-crossing call's kernel-side latency.
	k.mMigLatency.Observe(uint64(p.Now().Sub(start) / sim.Nanosecond))
}

// waitMigration blocks until the migration's return descriptor wakes the
// task. Without fault injection this is a plain suspend-wait (no timers
// armed, timing identical to the perfect-hardware model). Under injection
// the wait is bounded: on timeout the kernel probes the arrival buffer —
// recovering descriptors whose MSI was lost — and a wake that arrives with
// no descriptor pending (a late MSI from an earlier migration) is rejected
// and the task re-suspended. MaxRetries expiries with nothing to show fail
// the migration with a MigrationTimeoutError.
func (k *Kernel) waitMigration(p *sim.Proc, t *Task) {
	if k.inj == nil {
		t.suspendWait(p)
		return
	}
	// idle counts *consecutive* timeout windows with no descriptor and no
	// remote activity; any evidence of progress resets it, so a slow board
	// call can run arbitrarily long while a genuinely lost migration still
	// fails after MaxRetries idle windows.
	idle := 0
	for {
		if t.suspendWaitTimeout(p, k.recovery.MigrationTimeout) {
			if t.Err != nil || k.probe == nil || k.probe(t.PID) == ProbeReady {
				return
			}
			k.mSpuriousWakes.Inc()
			k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindIRQ, Aux: uint64(t.PID), Note: "spurious wake rejected"})
			t.State = TaskSuspended
			continue
		}
		// Timeout expired: probe instead of resending anything, so the
		// path stays idempotent.
		if t.Err != nil {
			t.State = TaskRunning
			return
		}
		state := ProbeIdle
		if k.probe != nil {
			state = k.probe(t.PID)
		}
		switch state {
		case ProbeReady:
			// The descriptor landed but its MSI was lost — recover the
			// wake locally.
			k.mMigRetries.Inc()
			k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindIRQ, Aux: uint64(t.PID), Note: "migration recovered by probe"})
			t.State = TaskRunning
			return
		case ProbeBusy:
			idle = 0
			continue
		}
		idle++
		if idle >= k.recovery.MaxRetries {
			k.mMigTimeouts.Inc()
			t.Err = &MigrationTimeoutError{PID: t.PID, Attempts: idle, Waited: k.recovery.MigrationTimeout * sim.Duration(idle)}
			k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindFault, Aux: uint64(t.PID), Note: "migration timed out"})
			t.State = TaskRunning
			return
		}
		k.mMigRetries.Inc()
	}
}

// ShootdownPage broadcasts a TLB shootdown for va's page to every
// registered target, modeling the IPI fan-out. An injected ipi.drop loses
// one IPI — the initiator waits out the ack window and re-sends, up to
// IPIRetries times; ipi.delay stretches a delivery.
func (k *Kernel) ShootdownPage(p *sim.Proc, va uint64) {
	k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindFault, Addr: va, Note: "tlb shootdown"})
	for _, tgt := range k.shootdown {
		delivered := false
		for attempt := 0; attempt <= k.recovery.IPIRetries; attempt++ {
			k.mShootIPIs.Inc()
			if k.inj.Roll("ipi", "drop") {
				// No ack comes back; wait out the window and resend.
				k.mShootRetries.Inc()
				p.Sleep(k.recovery.IPIDeliver)
				continue
			}
			d := k.recovery.IPIDeliver
			if extra, ok := k.inj.Delay("ipi", "delay"); ok {
				d += extra
			}
			p.Sleep(d)
			tgt.Flush(va)
			delivered = true
			break
		}
		if !delivered {
			k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindFault, Addr: va, Note: "shootdown IPI lost to " + tgt.Name})
		}
	}
}

// DeliverMSIVia is called by the DMA engine's completion callback to model
// the MSI interrupt that wakes a suspended thread. It runs in the device's
// process context; the interrupt and handler costs are charged to the
// woken thread's timeline via a wake timestamp adjustment — the thread
// sleeps WakeupSchedule after waking, and the IRQ costs are modeled as a
// delayed wake. site names the interrupt source: board i's mailbox raises
// MSIs at site "msi<i>" (board 0 keeps the bare "msi"), so fault specs can
// kill or delay exactly one board's completions. A site without its own
// rule falls back to the generic "msi" rules.
func (k *Kernel) DeliverMSIVia(site string, pid int) {
	k.mIRQs.Inc()
	t, ok := k.tasks[pid]
	if !ok {
		k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindIRQ, Aux: uint64(pid), Note: "MSI for unknown pid"})
		return
	}
	if k.inj.RollAt(site, "msi", "drop") {
		// The interrupt is lost; the migration-timeout probe recovers
		// the already-delivered descriptor.
		k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindIRQ, Aux: uint64(pid), Note: "MSI dropped"})
		return
	}
	extra, _ := k.inj.DelayAt(site, "msi", "delay")
	// Model interrupt-entry + handler latency by scheduling the wake
	// after the IRQ path completes. A timer, not a spawned process: the
	// wake body never blocks, and interrupt delivery is the hottest
	// spawn site in migration-heavy runs — a process here costs a
	// goroutine, a channel, and a permanent procs-table entry per IRQ.
	// The wake callback is the task's own, built on its first MSI.
	if t.msiWake == nil {
		t.msiWake = func() {
			if t.Wake() {
				k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindIRQ, Aux: uint64(t.PID), Note: "MSI wake"})
			} else {
				k.env.Emit(sim.Event{Comp: "kernel", Kind: sim.KindIRQ, Aux: uint64(t.PID), Note: "lost wakeup"})
			}
		}
	}
	k.env.AfterFunc(k.costs.InterruptEntry+k.costs.IRQHandler+extra, t.msiWake)
}
