package sim

import (
	"fmt"
	"testing"
)

func TestAfterFuncFiresInOrder(t *testing.T) {
	env := NewEnv()
	var got []int
	env.AfterFunc(30, func() { got = append(got, 3) })
	env.AfterFunc(10, func() { got = append(got, 1) })
	env.AfterFunc(20, func() { got = append(got, 2) })
	end := env.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", got)
	}
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
}

func TestAfterFuncSeesVirtualTime(t *testing.T) {
	env := NewEnv()
	var at Time
	env.AfterFunc(Duration(42), func() { at = env.Now() })
	env.Run()
	if at != 42 {
		t.Fatalf("timer saw now=%d, want 42", at)
	}
}

// A stopped timer must not advance the clock when its event drains:
// otherwise every armed-then-canceled timeout would stretch the simulated
// end time and break byte-identical no-fault outputs.
func TestStoppedTimerDoesNotAdvanceClock(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.AfterFunc(1_000_000, func() { fired = true })
	env.AfterFunc(10, func() {
		if !tm.Stop() {
			t.Error("Stop() = false, want true for pending timer")
		}
	})
	end := env.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if end != 10 {
		t.Fatalf("end time = %d, want 10 (stopped timer advanced the clock)", end)
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	env := NewEnv()
	tm := env.AfterFunc(5, func() {})
	env.Run()
	if tm.Stop() {
		t.Fatal("Stop() after fire = true, want false")
	}
}

// A caller-owned timer re-armed after it fired takes a fresh sequence
// number, so it orders with AfterFunc timers by (time, seq) exactly as a
// new AfterFunc timer would.
func TestArmRefiresInTimeSeqOrder(t *testing.T) {
	env := NewEnv()
	var tm Timer
	var got []string
	note := func(what string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", what, env.Now())) }
	}
	first := true
	var fn func()
	fn = func() {
		note("arm")()
		if first {
			first = false
			env.Arm(&tm, 10, fn) // ties af@20, armed before it fired
		}
	}
	env.Arm(&tm, 10, fn)
	env.AfterFunc(10, note("af")) // same instant, later seq
	env.AfterFunc(20, note("af"))
	env.AfterFunc(25, note("af"))
	env.Run()
	want := []string{"arm@10", "af@10", "af@20", "arm@20", "af@25"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

// Arm refuses a timer that still has a queue entry, pending or stopped:
// a second entry would run the new callback at the old entry's time.
func TestArmQueuedTimerPanics(t *testing.T) {
	for _, stop := range []bool{false, true} {
		env := NewEnv()
		var tm Timer
		env.Arm(&tm, 10, func() {})
		if stop {
			tm.Stop()
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stopped=%v: Arm on a queued timer did not panic", stop)
				}
			}()
			env.Arm(&tm, 20, func() {})
		}()
	}
}

// Stop cancels an armed caller-owned timer as it does an AfterFunc one,
// and the timer can be armed again once its stale entry has drained.
func TestStopArmedTimer(t *testing.T) {
	env := NewEnv()
	var tm Timer
	fired := 0
	fn := func() { fired++ }
	env.Arm(&tm, 1_000, fn)
	env.AfterFunc(10, func() {
		if !tm.Stop() {
			t.Error("Stop() = false, want true for an armed timer")
		}
	})
	if end := env.Run(); fired != 0 || end != 10 {
		t.Fatalf("stopped timer: fired %d times, run ended at %d; want 0 and 10", fired, end)
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	env.Arm(&tm, 5, fn)
	if end := env.Run(); fired != 1 || end != 15 {
		t.Fatalf("re-armed timer: fired %d times, run ended at %d; want 1 and 15", fired, end)
	}
}

// Re-arming an owned timer allocates nothing, where AfterFunc takes a
// slot of a timer chunk each time.
func TestArmAllocatesNothing(t *testing.T) {
	env := NewEnv()
	var tm Timer
	n := 0
	fn := func() { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		env.Arm(&tm, Nanosecond, fn)
		env.Run()
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per Arm and fire, want 0", allocs)
	}
	if n != 101 {
		t.Errorf("timer fired %d times, want 101", n)
	}
	if got := env.EngineStats().Timers; got != 101 {
		t.Errorf("EngineStats.Timers = %d, want 101", got)
	}
}

func TestWaitForTimeoutExpires(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	var ok bool
	var woke Time
	env.Spawn("waiter", func(p *Proc) {
		ok = p.WaitForTimeout(c, 100, func() bool { return false })
		woke = p.Now()
	})
	env.Run()
	if ok {
		t.Fatal("WaitForTimeout = true, want false on expiry")
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want 100", woke)
	}
	if names := env.Deadlocked(); len(names) != 0 {
		t.Fatalf("deadlocked procs after timeout: %v", names)
	}
}

func TestWaitForTimeoutSignaled(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	ready := false
	var ok bool
	var woke Time
	env.Spawn("waiter", func(p *Proc) {
		ok = p.WaitForTimeout(c, 1_000, func() bool { return ready })
		woke = p.Now()
	})
	env.Spawn("signaler", func(p *Proc) {
		p.Sleep(40)
		ready = true
		c.Signal()
	})
	end := env.Run()
	if !ok {
		t.Fatal("WaitForTimeout = false, want true after signal")
	}
	if woke != 40 {
		t.Fatalf("woke at %d, want 40", woke)
	}
	// The success path must stop its timer so the canceled deadline
	// does not stretch the run.
	if end != 40 {
		t.Fatalf("end time = %d, want 40 (timeout timer ran on)", end)
	}
}

func TestWaitForTimeoutPredAlreadyTrue(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	var ok bool
	env.Spawn("waiter", func(p *Proc) {
		ok = p.WaitForTimeout(c, 100, func() bool { return true })
	})
	end := env.Run()
	if !ok {
		t.Fatal("WaitForTimeout = false, want true for already-true pred")
	}
	if end != 0 {
		t.Fatalf("end time = %d, want 0 (no timer should be armed)", end)
	}
}

// A signal that arrives with the predicate still false must re-park the
// waiter and leave the timeout armed.
func TestWaitForTimeoutSpuriousSignalKeepsWaiting(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	var ok bool
	var woke Time
	env.Spawn("waiter", func(p *Proc) {
		ok = p.WaitForTimeout(c, 100, func() bool { return false })
		woke = p.Now()
	})
	env.Spawn("noise", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
	})
	env.Run()
	if ok {
		t.Fatal("WaitForTimeout = true, want false (pred never true)")
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want 100 (spurious signal ended the wait)", woke)
	}
}

func TestSetDaemonTogglesDeadlockVisibility(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("never")
	env.SpawnDaemon("svc", func(p *Proc) {
		p.SetDaemon(false)
		p.Wait(c)
	})
	env.Run()
	names := env.Deadlocked()
	if len(names) != 1 || names[0] != "svc on never" {
		t.Fatalf("Deadlocked() = %v, want [svc on never] after SetDaemon(false)", names)
	}
}
