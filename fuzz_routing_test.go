package flick_test

import (
	"testing"

	"flick"
	"flick/internal/kernel"
	"flick/internal/platform"
)

// FuzzPlacementRouting drives the board-placement and descriptor-routing
// path through random (board count, policy, task fan-out, fault schedule)
// combinations. Whatever interleaving of arrivals, duplicated descriptors,
// dropped completions, and board failovers the inputs produce, three
// invariants must hold exactly:
//
//   - every task's exit code matches the placement-independent oracle
//     (a completion routed to the wrong task would corrupt it),
//   - the board cores served exactly tasks×calls h2n descriptors (a
//     double-dispatched descriptor would inflate the count), and
//   - the hosts served exactly tasks×calls nested n2h calls.
//
// The fault menu holds only schedules the protocol guarantees to recover
// from: duplicate-descriptor delivery, lost MSIs, and a fully dead extra
// board's DMA (recoverable by failover; a no-op site at boards=1).
func FuzzPlacementRouting(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int64(1))  // 1 board, round-robin, fault-free
	f.Add(uint8(3), uint8(1), uint8(3), uint8(1), int64(7))  // 4 boards, least-loaded, dup storm
	f.Add(uint8(1), uint8(2), uint8(2), uint8(3), int64(42)) // 2 boards, affinity, dead board-1 DMA
	f.Add(uint8(2), uint8(0), uint8(3), uint8(4), int64(9))  // 3 boards, dropped MSIs
	f.Add(uint8(1), uint8(1), uint8(1), uint8(5), int64(11)) // dup + drop mix
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), int64(-3)) // dead board-1 MSIs
	f.Fuzz(func(t *testing.T, boardsB, policyB, tasksB, faultB uint8, faultSeed int64) {
		boards := 1 + int(boardsB)%4
		policies := []string{"round-robin", "least-loaded", "affinity"}
		policy := policies[int(policyB)%len(policies)]
		tasks := 1 + int(tasksB)%4
		const calls = 3
		faultMenu := []string{
			"",
			"dma.dup=0.4",
			"msi1.drop=1",
			"dma1.fail=1",
			"msi.drop=0.5",
			"dma.dup=0.3,msi.drop=0.4",
		}
		spec := faultMenu[int(faultB)%len(faultMenu)]

		p := platform.DefaultParams()
		p.HostCores = tasks
		p.Faults = spec
		p.FaultSeed = faultSeed
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
			t.Fatalf("boards=%d %s tasks=%d faults=%q seed=%d: %v", boards, policy, tasks, spec, faultSeed, err)
		}
		for i, task := range started {
			if task.Err != nil {
				t.Fatalf("boards=%d %s faults=%q seed=%d task %d: %v", boards, policy, spec, faultSeed, i, task.Err)
			}
			if want := mixExit(i, calls); task.ExitCode != want {
				t.Errorf("boards=%d %s faults=%q seed=%d: task %d exit %d, want %d (completion misrouted?)",
					boards, policy, spec, faultSeed, i, task.ExitCode, want)
			}
		}
		st := sys.Runtime.Stats()
		if want := tasks * calls; st.H2NCalls != want {
			t.Errorf("boards=%d %s faults=%q seed=%d: %d h2n calls served, want %d (double dispatch?)",
				boards, policy, spec, faultSeed, st.H2NCalls, want)
		}
		if want := tasks * calls; st.N2HCalls != want {
			t.Errorf("boards=%d %s faults=%q seed=%d: %d n2h calls served, want %d",
				boards, policy, spec, faultSeed, st.N2HCalls, want)
		}
	})
}
