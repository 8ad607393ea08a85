package workloads

import (
	"flick"
	"flick/internal/platform"
	"flick/internal/sim"
)

// latencySource measures raw access latencies the way the paper reports
// them (§V: 825 ns host→NxP storage, 267 ns NxP→local storage): a load
// loop over the board DRAM, differenced against an identical loop without
// the load so the loop's own instructions cancel out.
const latencySource = `
; Access-latency microbenchmark.

.func main isa=host
    ; a0 = buffer VA, a1 = iterations, a2 = mode
    ;   0: host loads from NxP storage      2: host loop without loads
    ;   1: NxP loads from local storage     3: NxP loop without loads
    mov  t3, a0
    mov  t4, a1
    mov  t2, a2

    ; Warm up TLBs and caches.
    mov  a0, t3
    movi a1, 4
    mov  a2, t2
    call dispatch

    sys  4
    mov  t5, a0
    mov  a0, t3
    mov  a1, t4
    mov  a2, t2
    call dispatch
    sys  4
    sub  a0, a0, t5
    halt
.endfunc

.func dispatch isa=host
    push ra
    andi t0, a2, 1
    bne  t0, zr, nxp
    andi t0, a2, 2
    bne  t0, zr, hostnop
    call host_loads
    pop  ra
    ret
hostnop:
    call host_nop
    pop  ra
    ret
nxp:
    andi t0, a2, 2
    bne  t0, zr, nxpnop
    call nxp_loads
    pop  ra
    ret
nxpnop:
    call nxp_nop
    pop  ra
    ret
.endfunc

.func host_loads isa=host
loop:
    ld8  t0, [a0+0]
    addi a1, a1, -1
    bne  a1, zr, loop
    ret
.endfunc

.func host_nop isa=host
loop:
    mov  t0, a0
    addi a1, a1, -1
    bne  a1, zr, loop
    ret
.endfunc

.func nxp_loads isa=nxp
loop:
    ld8  t0, [a0+0]
    addi a1, a1, -1
    bne  a1, zr, loop
    ret
.endfunc

.func nxp_nop isa=nxp
loop:
    mov  t0, a0
    addi a1, a1, -1
    bne  a1, zr, loop
    ret
.endfunc
`

// LatencyResult reproduces the §V access-latency measurements.
type LatencyResult struct {
	// HostToNxPStorage is a host core's load round trip to board DRAM
	// over PCIe (paper: ≈825 ns).
	HostToNxPStorage sim.Duration
	// NxPToLocalStorage is the NxP core's load from its own DRAM
	// (paper: ≈267 ns).
	NxPToLocalStorage sim.Duration
	// HostPageFault is the host NX-fault handling cost (paper: 0.7 µs).
	HostPageFault sim.Duration
}

// LatencyMode selects one access-latency measurement loop (the argument
// the microbenchmark's dispatch function switches on).
type LatencyMode uint64

const (
	// LatencyHostLoads times host loads from board DRAM over PCIe.
	LatencyHostLoads LatencyMode = 0
	// LatencyNxPLoads times NxP loads from its local DRAM.
	LatencyNxPLoads LatencyMode = 1
	// LatencyHostNop is the host loop without the load (subtrahend).
	LatencyHostNop LatencyMode = 2
	// LatencyNxPNop is the NxP loop without the load (subtrahend).
	LatencyNxPNop LatencyMode = 3
)

// RunLatencyMode measures one loop's total elapsed virtual time on a
// private machine; callers difference loaded against no-load loops. Each
// invocation is self-contained, so modes can run concurrently as
// scheduler jobs. obs, when non-nil, receives the run's observability
// report.
func RunLatencyMode(mode LatencyMode, iterations int, params *platform.Params, obs *sim.Observer) (sim.Duration, error) {
	if iterations <= 0 {
		iterations = 2000
	}
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"latency.fasm": latencySource},
		Params:  params,
		Obs:     obs,
	})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	buf, err := sys.Program.NxPHeap.Alloc(4096, 4096)
	if err != nil {
		return 0, err
	}
	elapsedNS, err := sys.RunProgram("main", buf, uint64(iterations), uint64(mode))
	obs.Collect(sys)
	if err != nil {
		return 0, err
	}
	return sim.Duration(elapsedNS) * sim.Nanosecond, nil
}

// PageFaultCost reports the host kernel's NX-fault handling cost on a
// machine built with params — the paper's separately-quoted 0.7 µs
// component (the simulator charges it as one block, as the paper reports
// one number).
func PageFaultCost(params *platform.Params) (sim.Duration, error) {
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"latency.fasm": latencySource},
		Params:  params,
	})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	return sys.Kernel.Costs().PageFaultEntry, nil
}
