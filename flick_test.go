package flick_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"flick"
	"flick/internal/platform"
	"flick/internal/sim"
)

func TestBuildRejectsBadSource(t *testing.T) {
	_, err := flick.Build(flick.Config{
		Sources: map[string]string{"bad.fasm": "frobnicate a0"},
	})
	if err == nil || !strings.Contains(err.Error(), "bad.fasm") {
		t.Errorf("err = %v, want assembler diagnostic with filename", err)
	}
}

func TestBuildRejectsMissingEntry(t *testing.T) {
	_, err := flick.Build(flick.Config{
		Sources: map[string]string{"a.fasm": ".func notmain isa=host\n halt\n.endfunc"},
	})
	if err == nil || !strings.Contains(err.Error(), "main") {
		t.Errorf("err = %v", err)
	}
}

func TestCustomEntry(t *testing.T) {
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"a.fasm": ".func start isa=host\n movi a0, 9\n halt\n.endfunc"},
		Entry:   "start",
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := sys.RunProgram("start")
	if err != nil || ret != 9 {
		t.Errorf("ret = %d, %v", ret, err)
	}
}

func TestDeterministicLinkAcrossSourceMaps(t *testing.T) {
	// Multiple source files in a map: layout must be deterministic
	// regardless of map iteration order.
	build := func() uint64 {
		sys, err := flick.Build(flick.Config{
			Sources: map[string]string{
				"zz.fasm": ".func zfn isa=host\n ret\n.endfunc",
				"aa.fasm": ".func main isa=host\n halt\n.endfunc",
				"mm.fasm": ".func mfn isa=nxp\n ret\n.endfunc",
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Image.Symbols["mfn"]
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("link layout not deterministic: %#x vs %#x", got, first)
		}
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() sim.Time {
		sys := flick.MustBuild(flick.Config{
			Sources: map[string]string{"a.fasm": `
.func main isa=host
    movi t0, 5
l:
    call f
    addi t0, t0, -1
    bne t0, zr, l
    halt
.endfunc
.func f isa=nxp
    addi a0, a0, 1
    ret
.endfunc
`},
		})
		if _, err := sys.RunProgram("main"); err != nil {
			t.Fatal(err)
		}
		return sys.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("virtual time not reproducible: %v vs %v", got, first)
		}
	}
}

func TestSymbolAndStartValidation(t *testing.T) {
	sys := flick.MustBuild(flick.Config{
		Sources: map[string]string{"a.fasm": `
.func main isa=host
    halt
.endfunc
.func nfn isa=nxp
    ret
.endfunc
`},
	})
	if _, err := sys.Symbol("main"); err != nil {
		t.Error(err)
	}
	if _, err := sys.Symbol("ghost"); err == nil {
		t.Error("ghost symbol resolved")
	}
	if _, err := sys.Start("ghost"); err == nil {
		t.Error("started thread at missing symbol")
	}
	if _, err := sys.Start("nfn"); err == nil {
		t.Error("started thread on NxP text")
	}
}

func TestCustomMachineParams(t *testing.T) {
	params := platform.DefaultParams()
	params.NxPDDR = 128 << 20
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"a.fasm": ".func main isa=host\n halt\n.endfunc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.NxPDDR.Size() != 128<<20 {
		t.Error("params override lost")
	}
	if _, err := sys.RunProgram("main"); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCapacityOption checks that the Observer's trace capacity sizes
// the machine's trace at build time.
func TestTraceCapacityOption(t *testing.T) {
	sys := flick.MustBuild(flick.Config{
		Sources: map[string]string{"a.fasm": `
.func main isa=host
    call f
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`},
		Obs: &sim.Observer{TraceCap: 32},
	})
	if got := sys.Machine.Env.Trace().Cap(); got != 32 {
		t.Errorf("trace capacity = %d, want the Observer's 32", got)
	}
	if _, err := sys.RunProgram("main"); err != nil {
		t.Fatal(err)
	}
	if len(sys.Machine.Env.Trace().Filter(sim.KindFault)) == 0 {
		t.Error("trace recorded no fault events")
	}
}

// lostWakeupMachine builds a machine whose one task loses its migration
// wakeup, recreating the §IV-D race deterministically: the descriptor DMA
// fires before suspension and descheduling is slower than the NxP round
// trip.
func lostWakeupMachine() *flick.System {
	sys := flick.MustBuild(flick.Config{
		Sources: map[string]string{"a.fasm": `
.func main isa=host
    call fastfn
    halt
.endfunc
.func fastfn isa=nxp
    ret
.endfunc
`},
	})
	sys.Kernel.EagerDMATrigger = true
	costs := sys.Kernel.Costs()
	costs.ContextSwitchAway = 500 * sim.Microsecond
	sys.Kernel.SetCosts(costs)
	return sys
}

func TestDeadlockErrorNamesStuckTasks(t *testing.T) {
	// A program that loses its migration wakeup must surface through the
	// public API as a Deadlocked error that names the stuck task and the
	// condition its core waits on, not as a silent hang or an anonymous
	// process list.
	_, err := lostWakeupMachine().RunProgram("main")
	if err == nil {
		t.Fatal("lost-wakeup run returned no error")
	}
	for _, want := range []string{"deadlocked", "main", "pid 1", "suspended", "on task.wake"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to mention %q", err, want)
		}
	}
}

// TestCloseEndsDeadlockedMachine closes a machine whose task is blocked
// mid-call by the lost-wakeup race: the deadlock report is read first,
// and then every goroutine the machine left parked (the stuck task's host
// core, the board scheduler, the DMA engines) must end.
func TestCloseEndsDeadlockedMachine(t *testing.T) {
	start := runtime.NumGoroutine()
	sys := lostWakeupMachine()
	if _, err := sys.RunProgram("main"); err == nil {
		t.Fatal("lost-wakeup run returned no error")
	}
	if len(sys.Machine.Env.Deadlocked()) == 0 || len(sys.Kernel.StuckTasks()) == 0 {
		t.Fatal("no deadlock report before Close")
	}
	parked := runtime.NumGoroutine()
	if parked <= start {
		t.Fatalf("%d goroutines after the run, %d before: nothing parked", parked, start)
	}
	sys.Close()
	sys.Close()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > start {
		t.Errorf("%d goroutines after Close (%d parked), %d before the build", n, parked, start)
	}
}

func TestPreassembledObjects(t *testing.T) {
	// The Objects field accepts pre-assembled inputs alongside sources.
	sys := flick.MustBuild(flick.Config{
		Sources: map[string]string{
			"main.fasm": ".func main isa=host\n call lib\n halt\n.endfunc",
			"lib.fasm":  ".func lib isa=host\n movi a0, 31\n ret\n.endfunc",
		},
	})
	ret, err := sys.RunProgram("main")
	if err != nil || ret != 31 {
		t.Errorf("ret = %d, %v", ret, err)
	}
}
