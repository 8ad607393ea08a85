package workloads

import (
	"fmt"
	"strings"

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
// The source is written once per board family on the machine (%[1]s is
// the family, %[2]s the suffix of its two function names), so the
// workload runs on boards of any family and on mixed boards
// (-board-isa nxp,cmp); the first family's copy keeps the plain names,
// so on one-family boards it assembles to exactly the historical source.
const scaleOutSource = `
.func main%[2]s isa=host
    ; a0 = calls, a1 = task id
    mov  t4, a0          ; remaining calls
    mov  t3, a1          ; task id
    movi t2, 0           ; iteration counter
    movi t5, 0           ; accumulator
l:
    mov  a0, t3
    mov  a1, t2
    call board_work%[2]s
    add  t5, t5, a0
    addi t2, t2, 1
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func board_work%[2]s isa=%[1]s
    ; ~2µs of board work, then return a0+a1
    li   t0, 400
w:
    addi t0, t0, -1
    bne  t0, zr, w
    add  a0, a0, a1
    ret
.endfunc
`

// boardFamilies lists each board's core family on the machine p
// describes: BoardISAs entry i for board i, with an empty or missing
// entry meaning the default family, as the platform resolves them.
func boardFamilies(p *platform.Params) []string {
	fams := make([]string, max(p.Boards, 1))
	for i := range fams {
		fams[i] = "nxp"
		if i < len(p.BoardISAs) && p.BoardISAs[i] != "" {
			fams[i] = p.BoardISAs[i]
		}
	}
	return fams
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
// reports the completion time and total migrated calls. Task i calls the
// work function of board i mod Boards's family, so mixed boards share
// the tasks as boards of one family do. obs, when non-nil, receives the
// run's observability report.
func RunScaleOut(tasks, callsPerTask int, p *platform.Params, obs *sim.Observer) (sim.Duration, int, error) {
	params := platform.DefaultParams()
	if p != nil {
		params = *p
	}
	params.HostCores = tasks
	fams := boardFamilies(&params)
	var src strings.Builder
	entry := map[string]string{} // family → its host entry point
	for _, f := range fams {
		if _, ok := entry[f]; ok {
			continue
		}
		suffix := ""
		if len(entry) > 0 {
			suffix = "_" + f
		}
		entry[f] = "main" + suffix
		fmt.Fprintf(&src, scaleOutSource, f, suffix)
	}
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Obs:     obs,
		Sources: map[string]string{"scaleout.fasm": src.String()},
	})
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	var started []*kernel.Task
	for i := 0; i < tasks; i++ {
		task, err := sys.Start(entry[fams[i%len(fams)]], uint64(callsPerTask), uint64(i))
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
