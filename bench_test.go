// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), plus ablations of the design choices called out in DESIGN.md §5.
//
// The paper benchmarks run the internal/experiments generators that
// flicksim runs, or the single-machine runs they sweep. Reported metrics
// are *virtual-time* results from the simulated platform (µs of migration
// overhead, normalized performance, speedups); the wall time Go reports
// per iteration is merely the cost of running the simulation. Set
// FLICK_FULL=1 for paper-scale parameters (minutes).
package flick_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"flick"
	"flick/internal/baseline"
	"flick/internal/experiments"
	"flick/internal/platform"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/workloads"
)

func opts() experiments.Options {
	if os.Getenv("FLICK_FULL") != "" {
		return experiments.Full()
	}
	o := experiments.Quick()
	// Benchmarks iterate b.N times; keep single runs brisk.
	o.NullCallIters = 300
	o.BFSScale = 64
	return o
}

// table3 runs the Table III experiment, the measured round trips.
func table3(b *testing.B) *workloads.NullCallResult {
	var r *workloads.NullCallResult
	for i := 0; i < b.N; i++ {
		var err error
		if _, r, err = experiments.Table3(opts()); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkTable3_HostNxPHost regenerates Table III's first column: the
// average host→NxP→host null-call round trip (paper: 18.3 µs).
func BenchmarkTable3_HostNxPHost(b *testing.B) {
	b.ReportMetric(table3(b).HostNxPHost.Microseconds(), "virt-µs/roundtrip")
	b.ReportMetric(18.3, "paper-µs/roundtrip")
}

// BenchmarkTable3_NxPHostNxP regenerates Table III's second column
// (paper: 16.9 µs).
func BenchmarkTable3_NxPHostNxP(b *testing.B) {
	b.ReportMetric(table3(b).NxPHostNxP.Microseconds(), "virt-µs/roundtrip")
	b.ReportMetric(16.9, "paper-µs/roundtrip")
}

// BenchmarkTable2_SpeedupOverPriorWork regenerates Table II: Flick's
// measured round trip against the published overheads of prior
// heterogeneous-ISA migration systems (paper: 23x-38x).
func BenchmarkTable2_SpeedupOverPriorWork(b *testing.B) {
	flickRT := table3(b).HostNxPHost
	for _, w := range baseline.Table2Rows {
		// Metric units must be whitespace-free; use the venue token.
		name, _, _ := strings.Cut(w.Name, " ")
		b.ReportMetric(baseline.SpeedupOver(w, flickRT), "x-vs-"+name)
	}
}

// fig5 runs one Figure 5 panel at representative x positions; the
// full-resolution sweep is `flicksim fig5a` / `flicksim fig5b`.
func fig5(b *testing.B, panel func(experiments.Options) (*stats.Chart, error)) *stats.Chart {
	o := opts()
	o.ChasePoints = []int{8, 32, 128, 512}
	o.ChaseCalls = 3
	var c *stats.Chart
	for i := 0; i < b.N; i++ {
		var err error
		if c, err = panel(o); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkFig5a regenerates Figure 5a's Flick and 500 µs-migration
// curves.
func BenchmarkFig5a(b *testing.B) {
	c := fig5(b, experiments.Fig5a)
	flickLine, slowLine := c.Series[0], c.Series[1]
	for i, x := range flickLine.X {
		b.ReportMetric(flickLine.Y[i], fmt.Sprintf("flick-norm@%.0f", x))
		b.ReportMetric(slowLine.Y[i], fmt.Sprintf("slow500µs-norm@%.0f", x))
	}
}

// BenchmarkFig5b regenerates Figure 5b (one migration per 100 µs).
func BenchmarkFig5b(b *testing.B) {
	flickLine := fig5(b, experiments.Fig5b).Series[0]
	for i, x := range flickLine.X {
		b.ReportMetric(flickLine.Y[i], fmt.Sprintf("flick-norm@%.0f", x))
	}
}

// BenchmarkTable4 regenerates Table IV and reports each dataset's
// baseline and Flick seconds and the speedup (paper: 0.75x / 1.19x /
// 1.09x).
func BenchmarkTable4(b *testing.B) {
	var rows []workloads.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		if _, rows, err = experiments.Table4(opts()); err != nil {
			b.Fatal(err)
		}
	}
	paper := map[string]float64{"Epinions1": 0.75, "Pokec": 1.19, "LiveJournal1": 1.09}
	for _, row := range rows {
		name, _, _ := strings.Cut(row.Dataset.Name, "/") // scaled datasets are named "<dataset>/<divisor>"
		b.ReportMetric(row.Baseline.Seconds(), "virt-s-baseline-"+name)
		b.ReportMetric(row.Flick.Seconds(), "virt-s-flick-"+name)
		b.ReportMetric(row.Speedup, "x-speedup-"+name)
		b.ReportMetric(paper[name], "x-paper-"+name)
	}
}

// BenchmarkAccessLatency regenerates the §V access-latency measurements
// (paper: 825 ns host→NxP storage, 267 ns NxP local).
func BenchmarkAccessLatency(b *testing.B) {
	var r *workloads.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		if _, r, err = experiments.Latency(opts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.HostToNxPStorage.Nanoseconds(), "virt-ns-host-to-nxp")
	b.ReportMetric(r.NxPToLocalStorage.Nanoseconds(), "virt-ns-nxp-local")
	b.ReportMetric(r.HostPageFault.Microseconds(), "virt-µs-pagefault")
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblation_DescriptorDMAvsPIO compares the paper's single-burst
// descriptor DMA against programmed I/O, where the NxP reads each
// descriptor word across PCIe.
func BenchmarkAblation_DescriptorDMAvsPIO(b *testing.B) {
	o := opts()
	runOnce := func(pio bool) sim.Duration {
		sys := flick.MustBuild(flick.Config{
			Sources: map[string]string{"null.fasm": `
.func main isa=host
    mov t5, a0
    call f
    sys 4
    mov t4, a0
l:
    call f
    addi t5, t5, -1
    bne t5, zr, l
    sys 4
    sub a0, a0, t4
    halt
.endfunc
.func f isa=nxp
    ret
.endfunc
`},
		})
		sys.Runtime.SetPIODescriptors(pio)
		ns, err := sys.RunProgram("main", uint64(o.NullCallIters))
		if err != nil {
			b.Fatal(err)
		}
		return sim.Duration(ns) * sim.Nanosecond / sim.Duration(o.NullCallIters)
	}
	var dma, pio sim.Duration
	for i := 0; i < b.N; i++ {
		dma = runOnce(false)
		pio = runOnce(true)
	}
	b.ReportMetric(dma.Microseconds(), "virt-µs-dma")
	b.ReportMetric(pio.Microseconds(), "virt-µs-pio")
	b.ReportMetric(pio.Microseconds()-dma.Microseconds(), "virt-µs-pio-penalty")
}

// BenchmarkAblation_HugePages compares the paper's 1 GiB-page NxP data
// window against 2 MiB pages: random pointer chasing then misses the
// 16-entry NxP TLB constantly, and every miss walks host-resident page
// tables across PCIe.
func BenchmarkAblation_HugePages(b *testing.B) {
	run := func(pageSize uint64) sim.Duration {
		params := platform.DefaultParams()
		params.NxPWindowPage = pageSize
		d, err := workloads.RunPointerChase(workloads.PointerChaseConfig{
			Nodes: 256, Calls: 3, Mode: workloads.ChaseFlick, Params: &params,
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	var huge, small sim.Duration
	for i := 0; i < b.N; i++ {
		huge = run(0)        // default: 1 GiB pages
		small = run(2 << 20) // 2 MiB pages
	}
	b.ReportMetric(huge.Microseconds(), "virt-µs-1GiB-pages")
	b.ReportMetric(small.Microseconds(), "virt-µs-2MiB-pages")
	b.ReportMetric(float64(small)/float64(huge), "x-slowdown-small-pages")
}

// BenchmarkAblation_NXFaultVsStubs reports the §III-B analysis: the
// break-even point between fault-triggered and stub-triggered migration.
func BenchmarkAblation_NXFaultVsStubs(b *testing.B) {
	m := baseline.DefaultStubModel()
	var nx, stub sim.Duration
	for i := 0; i < b.N; i++ {
		nx, stub = m.ProgramOverhead(1000, 1)
	}
	b.ReportMetric(nx.Microseconds(), "virt-µs-nx@1000calls")
	b.ReportMetric(stub.Microseconds(), "virt-µs-stub@1000calls")
	b.ReportMetric(m.BreakEvenCallRatio(), "calls-breakeven")
}

// BenchmarkAblation_BFSWithoutVisitMigration quantifies what Table IV's
// per-vertex host call costs the Flick BFS.
func BenchmarkAblation_BFSWithoutVisitMigration(b *testing.B) {
	o := opts()
	d := workloads.Epinions1.Scale(o.BFSScale)
	g := workloads.GenerateRMAT(d, o.Seed+1)
	var with, without workloads.BFSResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		with, err = workloads.RunBFS(workloads.BFSConfig{Dataset: d, Iterations: 1, Graph: g})
		if err != nil {
			b.Fatal(err)
		}
		without, err = workloads.RunBFS(workloads.BFSConfig{Dataset: d, Iterations: 1, Graph: g, SkipVisitCall: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with.PerIter.Seconds(), "virt-s-with-call")
	b.ReportMetric(without.PerIter.Seconds(), "virt-s-without")
}

// BenchmarkSimulatorThroughput measures the simulator itself: interpreted
// instructions per wall second (not a paper artifact).
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys := flick.MustBuild(flick.Config{
		Sources: map[string]string{"spin.fasm": `
.func main isa=host
    ; a0 = iterations
l:
    addi a0, a0, -1
    bne a0, zr, l
    halt
.endfunc
`},
	})
	b.ResetTimer()
	task, err := sys.Start("main", uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Run(); err != nil || task.Err != nil {
		b.Fatal(err, task.Err)
	}
}

// BenchmarkAblation_TransparencyCost compares Flick's transparent
// fault-triggered migration against explicit offload-style submission of
// the same job: the difference is what the NX fault + handler hijack cost
// (§III-B's argument that transparency is nearly free).
func BenchmarkAblation_TransparencyCost(b *testing.B) {
	var r baseline.OffloadComparison
	for i := 0; i < b.N; i++ {
		var err error
		r, err = baseline.RunOffloadComparison(200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Flick.Microseconds(), "virt-µs-flick")
	b.ReportMetric(r.Offload.Microseconds(), "virt-µs-offload")
	b.ReportMetric(r.TransparencyCost.Microseconds(), "virt-µs-transparency")
}

// BenchmarkMultiTenantNxP measures board contention: several host threads
// (one per host core) share the single NxP through Flick migrations, each
// making the tenants experiment's calls. The metric is aggregate migrated
// calls per virtual second versus tenants.
func BenchmarkMultiTenantNxP(b *testing.B) {
	run := func(tenants int) float64 {
		total, calls, err := workloads.RunMultiTenant(tenants, experiments.TenantCalls, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		return float64(calls) / total.Seconds()
	}
	var one, four float64
	for i := 0; i < b.N; i++ {
		one = run(1)
		four = run(4)
	}
	b.ReportMetric(one, "virt-calls/s-1tenant")
	b.ReportMetric(four, "virt-calls/s-4tenants")
	b.ReportMetric(four/one, "x-aggregate-scaling")
}

// BenchmarkSchedulerSpeedup measures the wall-clock effect of the job
// scheduler's -jobs knob on Figure 5a (the widest job graph: 3 lines x
// len(ChasePoints) independent machines). Results are byte-identical at
// every width (TestAllDeterministicAcrossWorkerCounts); on a multi-core
// machine wall time per op should drop roughly linearly until the graph
// width or core count saturates. ns/op is the whole-figure wall time.
func BenchmarkSchedulerSpeedup(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			o := opts()
			o.Jobs = jobs
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig5a(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleOutThroughput measures the simulator's scale-out
// throughput in simulated instructions per wall second: the same
// multi-board scale-out workload at growing board counts, on the default
// (run-ahead) engine. Virtual-time results are byte-identical to the
// reference engine (TestSimParDifferentialScaleOut); what run-ahead
// windows buy is how fast the simulator chews through board instructions
// once several boards compute at the same virtual time. Simulation code
// runs on one goroutine at a time, so extra host cores do not speed it up.
func BenchmarkScaleOutThroughput(b *testing.B) {
	for _, boards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("boards=%d", boards), func(b *testing.B) {
			var instr, windows uint64
			for i := 0; i < b.N; i++ {
				var snap sim.Snapshot
				obs := &sim.Observer{
					OnReport: func(r sim.Report) { snap = r.Metrics },
					OnEngine: func(sp sim.EngineStats) { windows += sp.Windows },
				}
				p := platform.DefaultParams()
				p.Boards = boards
				if _, _, err := workloads.RunScaleOut(8, 12, &p, obs); err != nil {
					b.Fatal(err)
				}
				for _, c := range snap.Counters {
					if strings.HasSuffix(c.Name, ".instret") {
						instr += c.Value
					}
				}
			}
			b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
			// Run-ahead windows opened per million simulated instructions:
			// fewer, longer windows mean fewer replays and handoffs.
			if instr > 0 {
				b.ReportMetric(float64(windows)/(float64(instr)/1e6), "windows/Minstr")
			}
		})
	}
}
