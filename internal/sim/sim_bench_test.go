package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkProcessSwitch measures one queued sleep and the handoff to the
// next process — the unit cost of every event the in-place Sleep fast path
// cannot absorb. Two processes sleep in lockstep, so each sleep finds the
// other process queued at an earlier or equal time and must park; each
// handoff is one coroutine resumption, the sleeping process yielding to
// Run's goroutine and Run's goroutine resuming the other.
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
	if got := env.EngineStats().Handoffs; got > uint64(b.N)+3 {
		b.Fatalf("%d sleeps took %d handoffs; each must cost one", b.N, got)
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

// BenchmarkQueueHold measures one pop and one push on the event queue at
// a constant occupancy, the classic hold model: each step pops the head
// and pushes it back a short delta later, as a process sleeping through
// its next instruction does, and a popped timer re-arms one window later.
// events=16 is a small machine's near set. timers=24000 is the traffic
// workload's occupancy: the admission timers workloads.RunTraffic arms up
// front, in time order at Poisson spacing, sitting far in the future
// under a churning 24-event near set.
func BenchmarkQueueHold(b *testing.B) {
	b.Run("events=16", func(b *testing.B) { benchQueueHold(b, 16, 0) })
	b.Run("timers=24000", func(b *testing.B) { benchQueueHold(b, 24, 24000) })
}

func benchQueueHold(b *testing.B, near, timers int) {
	const window = 600 * Millisecond // the traffic workload's arrival window
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var seq uint64
	push := func(at Time, timer *Timer) {
		seq++
		q.Push(event{at: at, seq: seq, timer: timer})
	}
	tm := &Timer{}
	var at Time
	for i := 0; i < timers; i++ {
		at = at.Add(Duration(rng.ExpFloat64() * float64(window) / float64(timers)))
		push(at, tm)
	}
	var deltas [1024]Duration
	for i := range deltas {
		deltas[i] = Duration(1 + rng.Int63n(int64(Microsecond)))
	}
	for i := 0; i < near; i++ {
		push(Time(deltas[i]), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.Pop()
		if ev.timer != nil {
			push(ev.at.Add(window), ev.timer)
		} else {
			push(ev.at.Add(deltas[i&(len(deltas)-1)]), nil)
		}
	}
	b.StopTimer()
	if q.Len() != near+timers {
		b.Fatalf("occupancy drifted: %d events, want %d", q.Len(), near+timers)
	}
}
