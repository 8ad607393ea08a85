package sim

import "testing"

// BenchmarkProcessSwitch measures one queued sleep and the handoff to the
// next process — the unit cost of every event the in-place Sleep fast path
// cannot absorb. Two processes sleep in lockstep, so each sleep finds the
// other process queued at an earlier or equal time and must park; the
// sleeping process resumes the other directly, one goroutine switch.
func BenchmarkProcessSwitch(b *testing.B) {
	env := NewEnv()
	ping := func(n int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Nanosecond)
			}
		}
	}
	env.Spawn("ping", ping((b.N+1)/2))
	env.Spawn("pong", ping(b.N/2))
	seq := env.SchedSeq()
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	if got := env.SchedSeq() - seq; got != uint64(b.N) {
		b.Fatalf("%d sleeps queued %d events; every sleep must switch", b.N, got)
	}
	// One handoff per sleep, plus Run starting ping, the first exit
	// resuming the other process and the second returning to Run.
	if got := env.SimParStats().Handoffs; got > uint64(b.N)+3 {
		b.Fatalf("%d sleeps took %d goroutine handoffs; each must cost one", b.N, got)
	}
}

// BenchmarkTimerWake measures one timer-driven wake: a process waits on a
// Cond that an AfterFunc callback signals, as a migrated thread waits for
// its MSI wake. Each wake queues two events, the timer and the
// resumption; the waiting process holds the baton, so the timer fires
// inline and the resumption is its own.
func BenchmarkTimerWake(b *testing.B) {
	env := NewEnv()
	c := env.NewCond("wake")
	wake := c.Signal
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.AfterFunc(Nanosecond, wake)
			p.Wait(c)
		}
	})
	seq := env.SchedSeq()
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	if got := env.SchedSeq() - seq; got != 2*uint64(b.N) {
		b.Fatalf("%d wakes queued %d events, want two each (timer and wake)", b.N, got)
	}
}
