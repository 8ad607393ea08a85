package workloads

import (
	"fmt"

	"flick"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/sim"
)

// scaleOutSource is the board scale-out workload: each host thread loops
// calling a board function that burns ~2µs of board time and returns
// taskid+iter, which the thread accumulates into its exit code. The exit
// value is a pure function of (taskid, calls) — independent of which board
// served each call — so it doubles as the placement-equivalence oracle.
// The work function's ISA family is substituted in (%s) so the workload
// runs unchanged on machines whose boards carry a non-default family
// (-board-isa cmp); with the default boards it assembles to exactly the
// historical isa=nxp source.
const scaleOutSource = `
.func main isa=host
    ; a0 = calls, a1 = task id
    mov  t4, a0          ; remaining calls
    mov  t3, a1          ; task id
    movi t2, 0           ; iteration counter
    movi t5, 0           ; accumulator
l:
    mov  a0, t3
    mov  a1, t2
    call board_work
    add  t5, t5, a0
    addi t2, t2, 1
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func board_work isa=%s
    ; ~2µs of board work, then return a0+a1
    li   t0, 400
w:
    addi t0, t0, -1
    bne  t0, zr, w
    add  a0, a0, a1
    ret
.endfunc
`

// scaleOutWorkFamily picks the family the work function assembles for:
// the first board's family, i.e. the first BoardISAs entry, with the
// empty entry (and an absent list) meaning the default board family.
func scaleOutWorkFamily(p *platform.Params) string {
	if len(p.BoardISAs) > 0 && p.BoardISAs[0] != "" {
		return p.BoardISAs[0]
	}
	return "nxp"
}

// ScaleOutExit is the expected exit code of task id on a clean run:
// sum over j in [0, calls) of (id + j).
func ScaleOutExit(id, calls int) uint64 {
	return uint64(calls*id) + uint64(calls*(calls-1)/2)
}

// RunScaleOut starts `tasks` migrating host threads on the machine p
// describes (its Boards and BoardPolicy set the placement; nil is the
// default one-board machine; HostCores is forced to tasks either way),
// verifies every task's exit code against the built-in oracle, and
// reports the completion time and total migrated calls. obs, when
// non-nil, receives the run's observability report.
func RunScaleOut(tasks, callsPerTask int, p *platform.Params, obs *sim.Observer) (sim.Duration, int, error) {
	params := platform.DefaultParams()
	if p != nil {
		params = *p
	}
	params.HostCores = tasks
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Obs:     obs,
		Sources: map[string]string{"scaleout.fasm": fmt.Sprintf(scaleOutSource, scaleOutWorkFamily(&params))},
	})
	if err != nil {
		return 0, 0, err
	}
	var started []*kernel.Task
	for i := 0; i < tasks; i++ {
		task, err := sys.Start("main", uint64(callsPerTask), uint64(i))
		if err != nil {
			return 0, 0, err
		}
		started = append(started, task)
	}
	_, runErr := sys.Run()
	obs.Collect(sys)
	if runErr != nil {
		return 0, 0, runErr
	}
	for i, task := range started {
		if task.Err != nil {
			return 0, 0, fmt.Errorf("workloads: scale-out task %d: %w", i, task.Err)
		}
		if want := ScaleOutExit(i, callsPerTask); task.ExitCode != want {
			return 0, 0, fmt.Errorf("workloads: scale-out task %d exited %d, want %d", i, task.ExitCode, want)
		}
	}
	return sys.Now().Duration(), sys.Runtime.Stats().H2NCalls, nil
}
