package pcie

import (
	"testing"

	"flick/internal/sim"
)

// BenchmarkDMADescriptor is one 64-byte descriptor transfer per op,
// submitted by a process that waits for its completion, as perfbench's
// pcie.dma_ns probe does: the engine's start and completion, the copy,
// and the wake of the waiting process.
func BenchmarkDMADescriptor(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	host, nxp, _, _ := newTestSpaces(b)
	eng := NewEngine(env, PCIe3x8(), 100*sim.Nanosecond)
	done := env.NewCond("done")
	finished := false
	req := Request{SrcSpace: host, Src: 0x100, DstSpace: nxp, Dst: 0x8000_0200, Size: 64, Tag: "desc",
		OnDone: func(sim.Time, bool) { finished = true; done.Signal() }}
	pred := func() bool { return finished }
	env.Spawn("submitter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			finished = false
			eng.Submit(req)
			p.WaitFor(done, pred)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	if got := eng.Stats().Transfers; got != b.N {
		b.Fatalf("engine finished %d transfers, want %d", got, b.N)
	}
}
