// Package workloads implements the paper's evaluation programs: the
// null-call migration-overhead microbenchmark (Table III), the
// pointer-chasing microbenchmark (Figure 5), and Graph500-style BFS over
// synthetic social graphs (Table IV), together with the workload
// generators and oracles they need. Every run here measures one
// configuration on its own machines; the sweeps that assemble the paper's
// tables and figures from them are defined once, in internal/experiments.
package workloads

import (
	"fmt"

	"flick"
	"flick/internal/core"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/sim"
)

// defaultKernelCosts and defaultRuntimeCosts pin the breakdown to the same
// constants the live system uses.
func defaultKernelCosts() kernel.Costs { return kernel.DefaultCosts() }
func defaultRuntimeCosts() core.Costs  { return core.DefaultCosts() }

// nullCallSource measures migration round trips exactly as §V-A: the host
// calls an NxP function that immediately returns, 10,000 times, and
// reports the average; a second phase has the NxP function call a host
// function that immediately returns, isolating the reverse direction by
// subtraction.
const nullCallSource = `
; Table III microbenchmark.

.func main isa=host
    ; a0 = iterations, a1 = mode (0: plain H2N, 1: with nested N2H call)
    mov  t5, a0
    mov  t3, a1
    mov  a1, t3
    call nxp_null        ; warm-up: stack init, TLB and I-cache fill
    sys  4               ; t4 = start ns
    mov  t4, a0
loop:
    mov  a1, t3
    call nxp_null
    addi t5, t5, -1
    bne  t5, zr, loop
    sys  4
    sub  a0, a0, t4      ; elapsed ns
    halt
.endfunc

.func nxp_null isa=nxp
    beq  a1, zr, out     ; mode 0: return immediately
    push ra
    call host_null       ; mode 1: bounce through the host
    pop  ra
out:
    ret
.endfunc

.func host_null isa=host
    ret
.endfunc
`

// NullCallResult is Table III plus the page-fault component.
type NullCallResult struct {
	Iterations int
	// HostNxPHost is the average host→NxP→host round trip (paper:
	// 18.3 µs).
	HostNxPHost sim.Duration
	// NxPHostNxP is the average NxP→host→NxP round trip, measured by
	// subtraction exactly as in the paper (16.9 µs).
	NxPHostNxP sim.Duration
}

// NullCallConfig parameterizes the run.
type NullCallConfig struct {
	Iterations int
	// ExtraMigrationLatency emulates slower mechanisms (prior work).
	ExtraMigrationLatency sim.Duration
	// Params overrides the machine.
	Params *platform.Params
	// Obs, when non-nil, receives the run's observability report.
	Obs *sim.Observer
}

// NullCallPhase runs one Table III phase on a private machine and returns
// the average per-call round trip. nested=false measures the plain
// host→NxP→host call; nested=true has the NxP function bounce through a
// host function, so subtracting the plain phase isolates the reverse
// direction. Each phase is self-contained, so the two can run
// concurrently as scheduler jobs.
func NullCallPhase(cfg NullCallConfig, nested bool) (sim.Duration, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10000
	}
	mode := uint64(0)
	if nested {
		mode = 1
	}
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"nullcall.fasm": nullCallSource},
		Params:  cfg.Params,
		Obs:     cfg.Obs,
	})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	sys.Runtime.ExtraMigrationLatency = cfg.ExtraMigrationLatency
	elapsedNS, err := sys.RunProgram("main", uint64(cfg.Iterations), mode)
	cfg.Obs.Collect(sys)
	if err != nil {
		return 0, err
	}
	wantCalls := cfg.Iterations + 1
	if got := sys.Runtime.Stats().H2NCalls; got != wantCalls {
		return 0, fmt.Errorf("workloads: expected %d migrations, saw %d", wantCalls, got)
	}
	return sim.Duration(elapsedNS) * sim.Nanosecond / sim.Duration(cfg.Iterations), nil
}

// BreakdownComponent is one phase of the migration round trip.
type BreakdownComponent struct {
	Name string
	Cost sim.Duration
}

// RoundTripBreakdown decomposes the Host-NxP-Host round trip into its
// modeled components using the default platform and cost constants. The
// returned total equals the steady-state measured round trip (asserted by
// TestBreakdownSumsToRoundTrip).
func RoundTripBreakdown() ([]BreakdownComponent, sim.Duration) {
	p := platform.DefaultParams()
	kc := defaultKernelCosts()
	rc := defaultRuntimeCosts()

	descHostWrite := sim.Duration(12) * p.HostDRAMAccess
	descHostRead := sim.Duration(12) * p.HostDRAMAccess
	descBRAM := sim.Duration(12) * p.NxPBRAMAccess
	dma := p.DMAOverhead + p.Link.BurstLatency(96)
	nullCall := 2 * 5 * sim.Nanosecond // call+ret interpreted on the NxP

	comps := []BreakdownComponent{
		{"NX fault + kernel handler + redirect", kc.PageFaultEntry},
		{"host migration handler + descriptor staging", rc.HostHandlerWork + descHostWrite},
		{"ioctl entry + deschedule (suspend-then-trigger)", kc.SyscallEntry + kc.ContextSwitchAway},
		{"descriptor DMA burst host→BRAM", dma},
		{"NxP scheduler poll + status + descriptor read", rc.NxPDispatch + p.RegsAccess + descBRAM},
		{"NxP context switch + target call/return", rc.NxPContextSwitch + nullCall},
		{"NxP return staging + doorbell", rc.NxPHandlerWork + descBRAM + p.RegsAccess},
		{"descriptor DMA burst BRAM→host + MSI + IRQ", dma + kc.InterruptEntry + kc.IRQHandler},
		{"wake→running + ioctl exit + descriptor read", kc.WakeupSchedule + kc.SyscallExit + descHostRead},
	}
	var total sim.Duration
	for _, c := range comps {
		total += c.Cost
	}
	return comps, total
}

// RunMultiTenant starts one migrating thread per host core and reports the
// completion time and total migrated calls — the contention experiment for
// the SMP-host extension. p, when non-nil, is the base machine
// configuration (HostCores is forced to tenants either way); obs, when
// non-nil, receives the run's observability report.
func RunMultiTenant(tenants, callsPerTenant int, p *platform.Params, obs *sim.Observer) (sim.Duration, int, error) {
	params := platform.DefaultParams()
	if p != nil {
		params = *p
	}
	params.HostCores = tenants
	sys, err := flick.Build(flick.Config{
		Params: &params,
		Obs:    obs,
		Sources: map[string]string{"mt.fasm": `
.func main isa=host
    ; a0 = calls
    mov  t4, a0
l:
    call nxp_job
    addi t4, t4, -1
    bne  t4, zr, l
    movi a0, 0
    sys  1
.endfunc
.func nxp_job isa=nxp
    li   t0, 1000      ; ~5µs of board work
w:
    addi t0, t0, -1
    bne  t0, zr, w
    ret
.endfunc
`},
	})
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	var tasks []*kernel.Task
	for i := 0; i < tenants; i++ {
		task, err := sys.Start("main", uint64(callsPerTenant))
		if err != nil {
			return 0, 0, err
		}
		tasks = append(tasks, task)
	}
	_, runErr := sys.Run()
	obs.Collect(sys)
	if runErr != nil {
		return 0, 0, runErr
	}
	for _, task := range tasks {
		if task.Err != nil {
			return 0, 0, task.Err
		}
	}
	return sys.Now().Duration(), sys.Runtime.Stats().H2NCalls, nil
}
