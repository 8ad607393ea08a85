package kernel

import (
	"fmt"

	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/sim"
)

// TaskState mirrors the states the Flick path uses.
type TaskState int

const (
	// TaskRunnable is on the run queue, waiting for the core.
	TaskRunnable TaskState = iota
	// TaskRunning is installed on the host core.
	TaskRunning
	// TaskSuspended is blocked in the migration ioctl (TASK_KILLABLE in
	// the paper), waiting for a wake from the DMA interrupt handler.
	TaskSuspended
	// TaskDone has exited.
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskRunnable:
		return "runnable"
	case TaskRunning:
		return "running"
	case TaskSuspended:
		return "suspended"
	case TaskDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BoardStackKey identifies one board-core stack allocation: stacks are
// per board (each board has its own BRAM) and per ISA (a board may host
// cores of more than one ISA, e.g. the DSP).
type BoardStackKey struct {
	Board int
	ISA   isa.ISA
}

// Task is the simulated task_struct. The Flick-specific fields at the
// bottom are the paper's additions: the saved faulting address, the NxP
// stack pointer, and the migration flag checked by the scheduler.
type Task struct {
	PID   int
	Name  string
	Ctx   *cpu.Context
	State TaskState

	ExitCode uint64
	Err      error // fatal fault or runtime error, if any
	// DoneAt is the virtual time the task reached TaskDone — with the
	// caller's record of when the task was started, the task's sojourn
	// time under load (see internal/traffic).
	DoneAt sim.Time

	wake        *sim.Cond
	wakePending bool
	// msiWake is the callback an MSI's timer runs to wake the task.
	msiWake func()
	// stackTop is the task's host stack (0 until first dispatch: stacks
	// are allocated lazily so a deep run-queue backlog of not-yet-started
	// tasks costs no stack memory, and recycled on exit so open-loop
	// workloads can push tens of thousands of tasks through a bounded
	// stack region).
	stackTop uint64

	// FaultAddr is the NX-faulting instruction address saved by the page
	// fault handler — the address of the function to migrate to.
	FaultAddr uint64
	// BoardStacks holds the thread's stack top in board-local memory for
	// each (board, ISA) core it has migrated to; entries are allocated on
	// the first migration toward that core.
	BoardStacks map[BoardStackKey]uint64
	// MigrationTrigger is the paper's "migration flag" in the task
	// struct: a deferred action (the descriptor DMA kick) the scheduler
	// fires only after the thread is suspended, closing the race in
	// §IV-D.
	MigrationTrigger func()
}

// Suspend blocks the calling simulated process until Wake. The caller must
// have set State to TaskSuspended *before* arming whatever will cause the
// wake; Wake on a non-suspended task is a no-op, exactly like waking a
// running task in the real kernel.
func (t *Task) suspendWait(p *sim.Proc) {
	p.WaitFor(t.wake, func() bool { return t.wakePending })
	t.wakePending = false
	t.State = TaskRunning
}

// suspendWaitTimeout is suspendWait with a deadline: it returns true when
// a wake arrived (state restored to running) and false when the timeout
// expired first (the task stays suspended; the caller decides whether to
// probe, re-wait, or fail the migration).
func (t *Task) suspendWaitTimeout(p *sim.Proc, d sim.Duration) bool {
	if p.WaitForTimeout(t.wake, d, func() bool { return t.wakePending }) {
		t.wakePending = false
		t.State = TaskRunning
		return true
	}
	return false
}

// Wake marks the task runnable if it is suspended (or mid-suspension with
// State already published). Waking a task that has not yet published
// TaskSuspended is lost — the race the post-suspend trigger rule exists to
// avoid.
func (t *Task) Wake() bool {
	if t.State != TaskSuspended {
		return false
	}
	t.wakePending = true
	t.wake.Signal()
	return true
}
