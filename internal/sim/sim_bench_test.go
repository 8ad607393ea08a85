package sim

import "testing"

// BenchmarkProcessSwitch measures one queued sleep and the handoff to the
// next process — the unit cost of every event the in-place Sleep fast path
// cannot absorb. Two processes sleep in lockstep, so each sleep finds the
// other process queued at an earlier or equal time and must park.
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
}
