package pcie

import (
	"testing"

	"flick/internal/mem"
	"flick/internal/sim"
)

func TestLinkLatencyShape(t *testing.T) {
	l := PCIe3x8()
	// A read round trip must cost more than a posted write.
	if l.ReadLatency(8) <= l.WriteLatency(8) {
		t.Error("read not more expensive than posted write")
	}
	// Payload size must increase cost monotonically.
	if l.BurstLatency(256) <= l.BurstLatency(64) {
		t.Error("burst latency not monotone in size")
	}
	// Calibration: 8-byte read round trip on the wire ≈ 735 ns, so that
	// wire + ~90 ns DRAM on the far side ≈ the paper's 825 ns figure.
	rt := l.ReadLatency(8)
	if rt < 650*sim.Nanosecond || rt > 800*sim.Nanosecond {
		t.Errorf("8B read latency %v outside calibration window", rt)
	}
	// A 64-byte descriptor burst should land well under 1 µs: this is
	// what makes the single-burst DMA descriptor path fast.
	if b := l.BurstLatency(64); b > 600*sim.Nanosecond {
		t.Errorf("descriptor burst %v too slow", b)
	}
}

func TestLinkBandwidthApproximation(t *testing.T) {
	l := PCIe3x8()
	// For a large burst the per-byte term should dominate and imply
	// roughly 7-8 GB/s.
	n := 1 << 20
	d := l.BurstLatency(n)
	gbps := float64(n) / d.Seconds() / 1e9
	if gbps < 6.5 || gbps > 9 {
		t.Errorf("large-burst bandwidth = %.2f GB/s, want ≈7.9", gbps)
	}
}

func newTestSpaces(t testing.TB) (host, nxp *mem.AddressSpace, hostRAM, nxpRAM *mem.Region) {
	t.Helper()
	host = mem.NewAddressSpace("host")
	nxp = mem.NewAddressSpace("nxp")
	hostRAM = mem.NewRAM("host-dram", 1<<20)
	nxpRAM = mem.NewRAM("nxp-ddr", 1<<20)
	if err := host.Map(0, hostRAM); err != nil {
		t.Fatal(err)
	}
	if err := nxp.Map(0, hostRAM); err != nil {
		t.Fatal(err)
	}
	if err := nxp.Map(0x8000_0000, nxpRAM); err != nil {
		t.Fatal(err)
	}
	return
}

func TestDMAEngineTransfersAndTiming(t *testing.T) {
	env := sim.NewEnv()
	host, nxp, _, _ := newTestSpaces(t)
	eng := NewEngine(env, PCIe3x8(), 100*sim.Nanosecond)

	if err := host.WriteU64(0x100, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	env.Spawn("driver", func(p *sim.Proc) {
		eng.Submit(Request{
			SrcSpace: host, Src: 0x100,
			DstSpace: nxp, Dst: 0x8000_0200,
			Size: 64, Tag: "h2n-desc",
			OnDone: func(at sim.Time, ok bool) { doneAt = at },
		})
	})
	env.Run()
	if doneAt == 0 {
		t.Fatal("transfer never completed")
	}
	if want := eng.TransferCost(64); doneAt.Duration() != want {
		t.Errorf("completed at %v, want %v", doneAt, want)
	}
	v, err := nxp.ReadU64(0x8000_0200)
	if err != nil || v != 0xCAFEBABE {
		t.Errorf("payload = %#x, %v", v, err)
	}
	st := eng.Stats()
	if st.Transfers != 1 || st.Bytes != 64 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDMAEngineFIFOAndSerialization(t *testing.T) {
	env := sim.NewEnv()
	host, nxp, _, _ := newTestSpaces(t)
	eng := NewEngine(env, PCIe3x8(), 0)

	var completions []int
	var times []sim.Time
	env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			i := i
			eng.Submit(Request{
				SrcSpace: host, Src: uint64(0x100 * (i + 1)),
				DstSpace: nxp, Dst: 0x8000_0000 + uint64(0x100*(i+1)),
				Size: 64, Tag: "t",
				OnDone: func(at sim.Time, ok bool) {
					completions = append(completions, i)
					times = append(times, at)
				},
			})
		}
	})
	env.Run()
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	for i, c := range completions {
		if c != i {
			t.Errorf("completion order %v not FIFO", completions)
			break
		}
	}
	// Transfers serialize through the single engine: completion times are
	// evenly spaced by one transfer cost.
	step := eng.TransferCost(64)
	for i, at := range times {
		if want := sim.Time(int64(step) * int64(i+1)); at != want {
			t.Errorf("transfer %d at %v, want %v", i, at, want)
		}
	}
}

// TestDMASteadyStateZeroAllocs pins that the engine's queue reuses its
// backing array: once the queue has reached its peak depth, transfers
// allocate nothing, whether requests arrive one at a time or in bursts.
func TestDMASteadyStateZeroAllocs(t *testing.T) {
	for _, burst := range []int{1, 3} {
		env := sim.NewEnv()
		host, nxp, _, _ := newTestSpaces(t)
		eng := NewEngine(env, PCIe3x8(), 0)
		const period = 10 * sim.Microsecond // far longer than a burst's transfers
		var done int
		onDone := func(sim.Time, bool) { done++ }
		env.SpawnDaemon("driver", func(p *sim.Proc) {
			for {
				for i := 0; i < burst; i++ {
					eng.Submit(Request{SrcSpace: host, Src: 0x100, DstSpace: nxp, Dst: 0x8000_0200,
						Size: 64, Tag: "desc", OnDone: onDone})
				}
				p.Sleep(period)
			}
		})
		env.RunUntil(sim.Time(0).Add(4 * period)) // warm up to the peak depth
		before := done
		allocs := testing.AllocsPerRun(100, func() { env.RunUntil(env.Now().Add(period)) })
		if done-before < 100*burst {
			t.Fatalf("burst %d: %d transfers in 100 periods, want at least %d", burst, done-before, 100*burst)
		}
		if allocs != 0 {
			t.Errorf("burst %d: %.2f allocations per period of %d transfers, want 0", burst, allocs, burst)
		}
		env.Close()
	}
}

func TestDMASubmitZeroSizePanics(t *testing.T) {
	env := sim.NewEnv()
	eng := NewEngine(env, PCIe3x8(), 0)
	defer func() {
		if recover() == nil {
			t.Error("zero-size submit did not panic")
		}
	}()
	eng.Submit(Request{Size: 0})
}

func TestBridgeBARAllocation(t *testing.T) {
	host := mem.NewAddressSpace("host")
	if err := host.Map(0, mem.NewRAM("host-dram", 1<<20)); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(PCIe3x8(), host, 0xA000_0000)

	ddr := mem.NewRAM("nxp-ddr", 4<<20)
	bar0, err := br.Expose(ddr, 0x8000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if bar0.HostBase != 0xA000_0000 {
		t.Errorf("BAR0 at %#x, want 0xA0000000", bar0.HostBase)
	}
	// The paper's running example: host base 0xA0000000, local base
	// 0x80000000 → remap delta 0x20000000... with these sizes; just check
	// the arithmetic identity.
	if bar0.RemapDelta() != bar0.HostBase-bar0.LocalBase {
		t.Error("remap delta identity violated")
	}
	if got := bar0.HostBase - bar0.RemapDelta(); got != 0x8000_0000 {
		t.Errorf("host->local conversion = %#x", got)
	}

	regs := mem.NewMMIO("regs", 0x40, nil)
	bar1, err := br.Expose(regs, 0x9000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if bar1.HostBase%4096 != 0 {
		t.Errorf("BAR1 base %#x not 4K aligned", bar1.HostBase)
	}
	if bar1.Index != 1 || len(br.BARs()) != 2 {
		t.Errorf("BAR bookkeeping wrong: %+v", br.BARs())
	}

	// Writes through the window land in the region.
	if err := host.WriteU64(bar0.HostBase+0x10, 77); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	ddr.Store().ReadAt(0x10, b[:])
	if b[0] != 77 {
		t.Error("BAR window write did not reach backing region")
	}

	if got, ok := br.FindBAR(bar0.HostBase + 5); !ok || got.Index != 0 {
		t.Errorf("FindBAR = %+v, %v", got, ok)
	}
	if _, ok := br.FindBAR(0x1000); ok {
		t.Error("FindBAR matched non-BAR address")
	}
}

func TestBARSizeAlignment(t *testing.T) {
	host := mem.NewAddressSpace("host")
	br := NewBridge(PCIe3x8(), host, 0xA000_0001) // deliberately misaligned
	r := mem.NewRAM("odd", 5000)                  // not a power of two
	bar, err := br.Expose(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bar.HostBase%8192 != 0 {
		t.Errorf("BAR base %#x not aligned to rounded size 8192", bar.HostBase)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 4096, 1: 4096, 4096: 4096, 4097: 8192, 1 << 30: 1 << 30}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
