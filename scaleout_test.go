package flick_test

import (
	"fmt"
	"sync"
	"testing"

	"flick"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/sim"
	"flick/internal/workloads"
)

// TestScaleOutConcurrentSystems drives several fully independent
// multi-board Systems from concurrent goroutines — the shape the
// experiment scheduler uses at -jobs > 1 — so the race detector can see
// any shared state leaking between machines (the per-name metric-counter
// identity must stay per-environment, not global).
func TestScaleOutConcurrentSystems(t *testing.T) {
	policies := placementPolicies()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			policy := policies[g%len(policies)]
			p := platform.DefaultParams()
			p.Boards = 3
			p.BoardPolicy = policy
			sys, err := flick.Build(flick.Config{
				Sources: map[string]string{"fib.fasm": placementFib},
				Params:  &p,
			})
			if err != nil {
				errs <- err
				return
			}
			ret, err := sys.RunProgram("main", 8)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d (%s): %w", g, policy, err)
				return
			}
			if ret != 21 {
				errs <- fmt.Errorf("goroutine %d (%s): fib(8) = %d, want 21", g, policy, ret)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFailoverExactUnderBoardDMAKill kills board 1's DMA engine outright
// (every transfer fails, exhausting the retry budget) on a two-board
// machine. Every placement that lands on board 1 dies with an h2n
// transport loss before the call ever reaches the board, so the kernel
// fails the migration over to board 0 — and the program's answer must be
// exactly the fault-free one, with the failover counter showing the
// re-placements happened.
func TestFailoverExactUnderBoardDMAKill(t *testing.T) {
	const tasks, calls = 6, 5
	for _, policy := range placementPolicies() {
		t.Run(policy, func(t *testing.T) {
			p := platform.DefaultParams()
			p.HostCores = tasks
			p.Faults = "dma1.fail=1"
			p.FaultSeed = 7
			p.Boards = 2
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
				t.Fatal(err)
			}
			for i, task := range started {
				if task.Err != nil {
					t.Fatalf("task %d: %v", i, task.Err)
				}
				if want := mixExit(i, calls); task.ExitCode != want {
					t.Errorf("task %d exit = %d under dead board-1 DMA, want fault-free %d", i, task.ExitCode, want)
				}
			}
			snap := sys.Report().Metrics
			if got := snap.Counter("kernel.failovers"); got == 0 {
				t.Error("kernel.failovers = 0; expected failed dispatches to board 1 to fail over")
			}
		})
	}
}

// TestExactUnderBoardMSIKill drops every MSI of board 1's mailbox: calls
// dispatched there execute and their return descriptors arrive, but the
// completion interrupt never fires. The kernel's migration-timeout probe
// must find the pending descriptor (ProbeReady) and recover the wake —
// without re-dispatching (the call ran; running it twice would be wrong) —
// so the answer stays exact.
func TestExactUnderBoardMSIKill(t *testing.T) {
	baseRet, baseOut := runPlacementFib(t, 1, "")
	p := platform.DefaultParams()
	p.Faults = "msi1.drop=1"
	p.FaultSeed = 11
	p.Boards = 2
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"fib.fasm": placementFib},
		Params:  &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := sys.RunProgram("main", 10)
	if err != nil {
		t.Fatal(err)
	}
	if out := sys.Console(); ret != baseRet || out != baseOut {
		t.Errorf("result (%d, %q) under dead board-1 MSIs, want fault-free (%d, %q)", ret, out, baseRet, baseOut)
	}
}

// TestFailoverStackAuditIntegrity pins the stack free lists against the
// failover path: on a two-board machine whose board-1 DMA is dead, every
// placement that lands there exhausts its transport retries and is
// re-dispatched to board 0. Each re-dispatched task has already been
// handed a board-1 BRAM stack slot; that slot must be released exactly
// once (at task exit) and never double-pushed onto the free list — a
// double release would hand the same slot to two live tasks. The audit
// runs repeatedly DURING the storm, so transient violations between
// failover and exit are caught, not just the quiescent end state; the
// per-board live-stack distinctness check below is the direct "two live
// tasks, one slot" probe.
func TestFailoverStackAuditIntegrity(t *testing.T) {
	const tasks, calls = 6, 5
	p := platform.DefaultParams()
	p.HostCores = tasks // all tasks live (and holding stacks) at once
	p.Faults = "dma1.fail=1"
	p.FaultSeed = 7
	p.Boards = 2
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

	env := sys.Machine.Env
	audits, maxLiveStacks := 0, 0
	var auditErr error
	var tick func()
	tick = func() {
		if auditErr == nil {
			auditErr = sys.Kernel.AuditStacks()
		}
		// Direct distinctness probe on the exported state: every live
		// task's board stack base must be unique per board.
		liveStacks := 0
		perBoard := map[int]map[uint64]int{}
		for _, task := range started {
			if task.State == kernel.TaskDone {
				continue
			}
			for key, top := range task.BoardStacks {
				liveStacks++
				if perBoard[key.Board] == nil {
					perBoard[key.Board] = map[uint64]int{}
				}
				if prev, dup := perBoard[key.Board][top]; dup && auditErr == nil {
					auditErr = fmt.Errorf("board %d stack %#x held by live tasks %d and %d",
						key.Board, top, prev, task.PID)
				}
				perBoard[key.Board][top] = task.PID
			}
		}
		maxLiveStacks = max(maxLiveStacks, liveStacks)
		audits++
		for _, task := range started {
			if task.State != kernel.TaskDone {
				env.AfterFunc(2*sim.Microsecond, tick)
				return
			}
		}
	}
	env.AfterFunc(sim.Microsecond, tick)

	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if auditErr != nil {
		t.Fatal(auditErr)
	}
	for i, task := range started {
		if task.Err != nil {
			t.Fatalf("task %d: %v", i, task.Err)
		}
		if want := mixExit(i, calls); task.ExitCode != want {
			t.Errorf("task %d exit = %d, want fault-free %d", i, task.ExitCode, want)
		}
	}
	if got := sys.Report().Metrics.Counter("kernel.failovers"); got == 0 {
		t.Error("kernel.failovers = 0; the storm never exercised the failover path")
	}
	if audits < 2 {
		t.Errorf("only %d mid-run audits; the timer never sampled the storm", audits)
	}
	if maxLiveStacks < 2 {
		t.Errorf("at most %d live board stacks observed; distinctness was never meaningfully probed", maxLiveStacks)
	}
	if err := sys.Kernel.AuditStacks(); err != nil {
		t.Errorf("quiescent audit after the run: %v", err)
	}
}

// TestScaleOutThroughputIncreases pins the scale-out experiment's headline
// claim at the API level: with enough concurrent tasks, adding boards
// strictly reduces completion time.
func TestScaleOutThroughputIncreases(t *testing.T) {
	var prev float64
	for i, boards := range []int{1, 2, 4} {
		p := platform.DefaultParams()
		p.Boards = boards
		total, calls, err := workloads.RunScaleOut(8, 12, &p, nil)
		if err != nil {
			t.Fatalf("boards=%d: %v", boards, err)
		}
		if calls != 8*12 {
			t.Errorf("boards=%d: %d migrated calls, want %d", boards, calls, 8*12)
		}
		secs := total.Seconds()
		if i > 0 && secs >= prev {
			t.Errorf("boards=%d total %.1fµs not faster than previous %.1fµs", boards, secs*1e6, prev*1e6)
		}
		prev = secs
	}
}

// TestScaleOutAllCmpBoards runs the same workload on machines whose every
// board carries the compressed ISA: no nxp core exists, so the build must
// link the runtime library for host and cmp only, and the work function
// assembles for cmp. The workload's built-in oracle checks every
// exit code, and throughput must still scale with boards.
func TestScaleOutAllCmpBoards(t *testing.T) {
	var prev float64
	for i, boards := range []int{1, 2} {
		p := platform.DefaultParams()
		p.Boards = boards
		p.BoardISAs = make([]string, boards)
		for j := range p.BoardISAs {
			p.BoardISAs[j] = "cmp"
		}
		total, calls, err := workloads.RunScaleOut(8, 12, &p, nil)
		if err != nil {
			t.Fatalf("boards=%d: %v", boards, err)
		}
		if calls != 8*12 {
			t.Errorf("boards=%d: %d migrated calls, want %d", boards, calls, 8*12)
		}
		secs := total.Seconds()
		if i > 0 && secs >= prev {
			t.Errorf("boards=%d total %.1fµs not faster than previous %.1fµs", boards, secs*1e6, prev*1e6)
		}
		prev = secs
	}
}
