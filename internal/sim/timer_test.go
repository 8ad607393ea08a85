package sim

import (
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
