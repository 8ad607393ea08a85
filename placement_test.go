package flick_test

import (
	"fmt"
	"testing"

	"flick"
	"flick/internal/kernel"
	"flick/internal/platform"
)

// The placement-equivalence suite: a board-placement policy may change
// where (and therefore when, in virtual time) a migrated call runs, but it
// must never change what the program computes. Every workload here is run
// at boards=1 under the default policy to establish a baseline, then
// across boards ∈ {1..4} × every policy; the functional results — exit
// codes and console output — must be identical throughout.

// placementFib is the §IV-B nested-bidirectional shape: every recursion
// level is a migration in alternating directions, so follow-up dispatches
// must stay pinned to the blocked frame's board for the answer to hold.
const placementFib = `
.func main isa=host
    call host_fib
    mov  t4, a0
    sys  3          ; print fib(n): a second witness besides the exit code
    mov  a0, t4
    sys  1
.endfunc

.func host_fib isa=host
    movi t0, 2
    bltu a0, t0, small
    push ra
    push a0
    addi a0, a0, -1
    call nxp_fib
    pop  t0
    push a0
    addi a0, t0, -2
    call nxp_fib
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
small:
    ret
.endfunc

.func nxp_fib isa=nxp
    movi t0, 2
    bltu a0, t0, small
    push ra
    push a0
    addi a0, a0, -1
    call host_fib
    pop  t0
    push a0
    addi a0, t0, -2
    call host_fib
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
small:
    ret
.endfunc
`

// placementMix is the concurrent shape: several host tasks each loop over
// a migrated call whose body makes a nested NxP→host call, so descriptor
// routing must deliver every completion to the right task on the right
// board. Task id's exit code is a pure function of (id, calls).
const placementMix = `
.func main isa=host
    ; a0 = calls, a1 = task id
    mov  t3, a1
    mov  t4, a0
    movi t5, 0
l:
    mov  a0, t3
    mov  a1, t4
    call nxp_mix
    add  t5, t5, a0
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func nxp_mix isa=nxp
    ; returns 2*id + iter + 1, bouncing through the host for the +1
    add  a0, a0, a0
    add  a0, a0, a1
    push ra
    call host_inc
    pop  ra
    ret
.endfunc

.func host_inc isa=host
    addi a0, a0, 1
    ret
.endfunc
`

// mixExit is placementMix's oracle for one task: sum over iter in
// [1, calls] of (2*id + iter + 1).
func mixExit(id, calls int) uint64 {
	var sum uint64
	for iter := 1; iter <= calls; iter++ {
		sum += uint64(2*id + iter + 1)
	}
	return sum
}

func placementPolicies() []string { return []string{"round-robin", "least-loaded", "affinity"} }

func runPlacementFib(t *testing.T, boards int, policy string) (uint64, string) {
	t.Helper()
	p := platform.DefaultParams()
	p.Boards = boards
	p.BoardPolicy = policy
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"fib.fasm": placementFib},
		Params:  &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := sys.RunProgram("main", 10)
	if err != nil {
		t.Fatalf("boards=%d policy=%s: %v", boards, policy, err)
	}
	return ret, sys.Console()
}

func runPlacementMix(t *testing.T, boards int, policy string, tasks, calls int) []uint64 {
	t.Helper()
	p := platform.DefaultParams()
	p.HostCores = tasks
	p.Boards = boards
	p.BoardPolicy = policy
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"mix.fasm": placementMix},
		Params:  &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	var started []*kernel.Task
	for i := 0; i < tasks; i++ {
		task, err := sys.Start("main", uint64(calls), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, task)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("boards=%d policy=%s: %v", boards, policy, err)
	}
	codes := make([]uint64, len(started))
	for i, task := range started {
		if task.Err != nil {
			t.Fatalf("boards=%d policy=%s task %d: %v", boards, policy, i, task.Err)
		}
		codes[i] = task.ExitCode
	}
	return codes
}

func TestPlacementEquivalence(t *testing.T) {
	const tasks, calls = 6, 5
	baseRet, baseOut := runPlacementFib(t, 1, "")
	if baseRet != 55 {
		t.Fatalf("baseline fib(10) = %d, want 55", baseRet)
	}
	baseCodes := runPlacementMix(t, 1, "", tasks, calls)
	for i, c := range baseCodes {
		if want := mixExit(i, calls); c != want {
			t.Fatalf("baseline task %d exit = %d, want %d", i, c, want)
		}
	}
	for _, boards := range []int{1, 2, 3, 4} {
		for _, policy := range placementPolicies() {
			t.Run(fmt.Sprintf("boards=%d/%s", boards, policy), func(t *testing.T) {
				ret, out := runPlacementFib(t, boards, policy)
				if ret != baseRet || out != baseOut {
					t.Errorf("fib result (%d, %q) differs from baseline (%d, %q)", ret, out, baseRet, baseOut)
				}
				codes := runPlacementMix(t, boards, policy, tasks, calls)
				for i := range baseCodes {
					if codes[i] != baseCodes[i] {
						t.Errorf("task %d exit = %d, baseline %d", i, codes[i], baseCodes[i])
					}
				}
			})
		}
	}
}
