package sim

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	end := env.Run()
	if want := Time(5 * Microsecond); woke != want {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	env.Spawn("b", func(p *Proc) {
		p.Sleep(-3)
		order = append(order, "b")
	})
	env.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v, want [a b]", order)
	}
	if env.Now() != 0 {
		t.Errorf("clock moved to %v on zero sleeps", env.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var log []string
		for _, name := range []string{"p1", "p2", "p3"} {
			name := name
			env.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1 * Nanosecond)
					log = append(log, name)
				}
			})
		}
		env.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: interleaving diverged at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("waiter", func(p *Proc) {
			p.Wait(c)
			order = append(order, i)
		})
	}
	env.Spawn("signaler", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", c.Waiters())
		}
		c.Signal()
		p.Sleep(1 * Microsecond)
		c.Broadcast()
	})
	env.Run()
	if len(order) != 3 {
		t.Fatalf("only %d waiters woke: %v", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order not FIFO: %v", order)
		}
	}
	if stuck := env.Deadlocked(); len(stuck) != 0 {
		t.Errorf("deadlocked: %v", stuck)
	}
}

// TestCondSignalKeepsLastWaiterSlot pins the one-waiter Cond, as a
// migrated thread waits for its MSI wake: Signal rewinds the waiter list
// when its last waiter leaves, so the list keeps its capacity and the next
// Wait does not allocate a new one.
func TestCondSignalKeepsLastWaiterSlot(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("wake")
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 4; i++ {
			env.AfterFunc(Nanosecond, c.Signal)
			p.Wait(c)
			if c.Waiters() != 0 || cap(c.waiters) == 0 {
				t.Errorf("wake %d: %d waiters, capacity %d; want 0 waiters and the slot kept", i, c.Waiters(), cap(c.waiters))
				return
			}
		}
	})
	env.Run()
}

func TestWaitForPredicateAlreadyTrue(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	done := false
	env.Spawn("p", func(p *Proc) {
		p.WaitFor(c, func() bool { return true })
		done = true
	})
	env.Run()
	if !done {
		t.Error("WaitFor blocked on an already-true predicate")
	}
}

func TestWaitForRechecks(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	n := 0
	var sawAt Time
	env.Spawn("consumer", func(p *Proc) {
		p.WaitFor(c, func() bool { return n >= 3 })
		sawAt = p.Now()
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1 * Microsecond)
			n++
			c.Broadcast()
		}
	})
	env.Run()
	if want := Time(3 * Microsecond); sawAt != want {
		t.Errorf("consumer proceeded at %v, want %v", sawAt, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("never")
	env.Spawn("stuck", func(p *Proc) { p.Wait(c) })
	env.Run()
	stuck := env.Deadlocked()
	if len(stuck) != 1 || stuck[0] != "stuck" {
		t.Errorf("Deadlocked = %v, want [stuck]", stuck)
	}
}

// Close ends the goroutine of every process Run left parked (blocked on a
// condition, idling as a daemon, asleep past a RunUntil deadline), runs
// their deferred calls without letting a deferred Sleep move the clock,
// and leaves a process that never started alone. Deadlocked's report is
// read first; Close is idempotent, and Run afterwards panics.
func TestCloseEndsParkedGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	env := NewEnv()
	c := env.NewCond("never")
	var deferred []string
	env.Spawn("stuck", func(p *Proc) {
		defer func() { deferred = append(deferred, "stuck") }()
		defer p.Sleep(Microsecond)
		p.Wait(c)
	})
	env.SpawnDaemon("daemon", func(p *Proc) {
		defer func() { deferred = append(deferred, "daemon") }()
		p.WaitFor(c, func() bool { return false })
	})
	env.Spawn("sleeper", func(p *Proc) {
		defer func() { deferred = append(deferred, "sleeper") }()
		p.Sleep(100 * Microsecond)
	})
	end := env.RunUntil(Time(10 * Microsecond))
	env.Spawn("unstarted", func(*Proc) { t.Error("a process spawned after the run started") })
	if stuck := env.Deadlocked(); !slices.Equal(stuck, []string{"stuck"}) {
		t.Errorf("Deadlocked = %v, want [stuck]", stuck)
	}
	if n := runtime.NumGoroutine(); n < start+3 {
		t.Fatalf("%d goroutines after the run, want at least %d parked", n, start+3)
	}
	env.Close()
	env.Close()
	if want := []string{"stuck", "daemon", "sleeper"}; !slices.Equal(deferred, want) {
		t.Errorf("deferred calls ran for %v, want %v", deferred, want)
	}
	if env.Now() != end {
		t.Errorf("Close moved the clock from %v to %v", end, env.Now())
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > start {
		t.Errorf("%d goroutines after Close, %d before the run", n, start)
	}
	defer func() {
		if recover() == nil {
			t.Error("Run on a closed Env did not panic")
		}
	}()
	env.Run()
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1 * Microsecond)
			ticks++
		}
	})
	env.RunUntil(Time(10 * Microsecond))
	if ticks != 10 {
		t.Errorf("ticks = %d at deadline, want 10", ticks)
	}
	env.Run()
	if ticks != 100 {
		t.Errorf("ticks = %d after full run, want 100", ticks)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	env := NewEnv()
	env.RunUntil(Time(42 * Microsecond))
	if env.Now() != Time(42*Microsecond) {
		t.Errorf("Now = %v, want 42µs", env.Now())
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	env := NewEnv()
	var childRan Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		env.Spawn("child", func(c *Proc) {
			c.Sleep(1 * Microsecond)
			childRan = c.Now()
		})
		p.Sleep(10 * Microsecond)
	})
	env.Run()
	if want := Time(3 * Microsecond); childRan != want {
		t.Errorf("child ran at %v, want %v", childRan, want)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("panic in process did not propagate to Run")
		} else if r != "boom" {
			t.Errorf("panic value = %v, want boom", r)
		}
	}()
	env := NewEnv()
	env.Spawn("bomb", func(p *Proc) {
		p.Sleep(1 * Nanosecond)
		panic("boom")
	})
	env.Run()
}

// A timer callback fires on whichever goroutine holds the baton. When that
// is a process passing the baton on, a panic in the callback must still
// surface from Run with its original value, whether the process is
// sleeping, waiting on a Cond, or has just returned from its body.
func TestTimerPanicWhilePassingBaton(t *testing.T) {
	type boom struct{ name string }
	for _, tc := range []struct {
		name string
		body func(*Proc, *Cond)
	}{
		{"sleep", func(p *Proc, _ *Cond) { p.Sleep(10 * Nanosecond) }},
		{"wait", func(p *Proc, c *Cond) { p.Wait(c) }},
		{"exit", func(*Proc, *Cond) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := &boom{tc.name}
			env := NewEnv()
			c := env.NewCond("never")
			env.Spawn("p", func(p *Proc) {
				env.AfterFunc(5*Nanosecond, func() { panic(want) })
				tc.body(p, c)
			})
			defer func() {
				if r := recover(); r != want {
					t.Errorf("Run panicked with %v, want %v", r, want)
				}
			}()
			env.Run()
		})
	}
}

// Each queued sleep costs one goroutine handoff, not two: the sleeping
// process resumes the next one directly. A process that is itself the next
// resumption costs none.
func TestHandoffsPerResumption(t *testing.T) {
	const n = 100
	env := NewEnv()
	for _, name := range []string{"ping", "pong"} {
		env.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Nanosecond)
			}
		})
	}
	env.Run()
	// Beyond one handoff per sleep: Run starting ping, ping's exit
	// resuming pong, and pong's exit returning the baton to Run.
	if got, want := env.EngineStats().Handoffs, uint64(2*n+3); got != want {
		t.Errorf("%d lockstep sleeps took %d handoffs, want %d", 2*n, got, want)
	}

	env = NewEnv()
	var during uint64
	env.Spawn("waiter", func(p *Proc) {
		c := env.NewCond("wake")
		h := env.EngineStats().Handoffs
		for i := 0; i < n; i++ {
			env.AfterFunc(Nanosecond, c.Signal)
			p.Wait(c)
		}
		during = env.EngineStats().Handoffs - h
	})
	env.Run()
	if during != 0 {
		t.Errorf("%d timer-signaled waits with nothing else runnable took %d handoffs, want 0", n, during)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	_ = c
	defer func() {
		if recover() == nil {
			t.Error("expected panic when scheduling in the past")
		}
	}()
	env.Spawn("p", func(p *Proc) { p.Sleep(time1) })
	env.Run()
	// Force the clock forward, then manually schedule in the past.
	env.schedule(&Proc{env: env, name: "ghost", state: stateRunnable}, 0)
}

const time1 = 5 * Microsecond

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	const n = 500
	total := 0
	for i := 0; i < n; i++ {
		i := i
		env.Spawn("w", func(p *Proc) {
			p.Sleep(Duration(i) * Nanosecond)
			total++
		})
	}
	env.Run()
	if total != n {
		t.Errorf("total = %d, want %d", total, n)
	}
	if env.Now() != Time((n-1)*int(Nanosecond)) {
		t.Errorf("final time = %v", env.Now())
	}
}

func TestSleepMonotonicProperty(t *testing.T) {
	// Property: for any sequence of sleep durations, the observed wake
	// times are the prefix sums, and the clock never goes backward.
	f := func(raw []uint16) bool {
		env := NewEnv()
		var wakes []Time
		env.Spawn("p", func(p *Proc) {
			for _, d := range raw {
				p.Sleep(Duration(d) * Nanosecond)
				wakes = append(wakes, p.Now())
			}
		})
		env.Run()
		var sum Time
		for i, d := range raw {
			sum = sum.Add(Duration(d) * Nanosecond)
			if wakes[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParallelEnvsAreIndependent(t *testing.T) {
	// Multiple Envs must be usable from different goroutines concurrently
	// (each Env is single-threaded internally, but Envs don't share state).
	t.Parallel()
	done := make(chan Time, 4)
	for i := 0; i < 4; i++ {
		go func() {
			env := NewEnv()
			env.Spawn("p", func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Sleep(1 * Nanosecond)
				}
			})
			done <- env.Run()
		}()
	}
	for i := 0; i < 4; i++ {
		if got := <-done; got != Time(1000*Nanosecond) {
			t.Errorf("env finished at %v, want 1µs", got)
		}
	}
}
