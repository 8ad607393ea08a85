package workloads

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"flick"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/platform"
	"flick/internal/sim"
)

// pointerChaseSource is the Figure 5 microbenchmark: traverse linked lists
// whose nodes are spread randomly through the NxP-side storage. The chase
// loop deliberately does a little per-node work (visit counting and a
// checksum mix) alongside the dependent load, matching the paper's
// observed steady-state ratio of ≈2.6× between host-over-PCIe and
// NxP-local traversal.
const pointerChaseSource = `
; Figure 5 microbenchmark.

.func main isa=host
    ; a0 = head pointer, a1 = nodes per call, a2 = calls, a3 = mode
    ;   mode 0: migrate to the NxP per call (Flick)
    ;   mode 1: host traverses directly over PCIe (baseline)
    ;   mode 2: like 0 but with 100µs of host work between calls (Fig 5b)
    ;   mode 3: like 1 but with the same 100µs host work (Fig 5b baseline)
    mov  t3, a0        ; head
    mov  t4, a2        ; remaining calls
    mov  t2, a3        ; mode

    ; Warm up one call so steady-state numbers exclude first-migration
    ; stack setup, exactly like the paper's averaging over 10k calls.
    mov  a0, t3
    call chase_dispatch
    sys  4
    mov  t5, a0        ; start ns
loop:
    andi t0, t2, 2     ; modes 2/3 insert host work
    beq  t0, zr, nowork
    movi a0, 100000    ; 100 µs
    call host_work
nowork:
    mov  a0, t3
    call chase_dispatch
    addi t4, t4, -1
    bne  t4, zr, loop
    sys  4
    sub  a0, a0, t5    ; elapsed ns
    halt
.endfunc

; host_work burns a0 nanoseconds of host time (Fig. 5b's inter-migration
; interval). Native stubs must form an entire function body: the core
; returns to RA when the native completes.
.func host_work isa=host
    native 100
.endfunc

.func chase_dispatch isa=host
    ; a0 = head, a1 = count (preserved), t2 = mode
    push ra
    andi t0, t2, 1
    beq  t0, zr, remote
    call chase_host
    pop  ra
    ret
remote:
    call chase_nxp
    pop  ra
    ret
.endfunc

; The two chase bodies are instruction-for-instruction identical; only the
; ISA (and therefore the executing core) differs.
.func chase_nxp isa=nxp
    mov  t0, a1        ; n
    movi t1, 0         ; checksum
    movi a2, 0         ; visit count
cloop:
    ld8  a3, [a0+0]    ; dependent load: next pointer
    xor  t1, t1, a0
    shli a4, a2, 1
    add  a4, a4, t1
    and  a4, a4, t1
    addi a2, a2, 1
    mov  a0, a3
    addi t0, t0, -1
    bne  t0, zr, cloop
    mov  a0, t1
    ret
.endfunc

.func chase_host isa=host
    mov  t0, a1
    movi t1, 0
    movi a2, 0
cloop:
    ld8  a3, [a0+0]
    xor  t1, t1, a0
    shli a4, a2, 1
    add  a4, a4, t1
    and  a4, a4, t1
    addi a2, a2, 1
    mov  a0, a3
    addi t0, t0, -1
    bne  t0, zr, cloop
    mov  a0, t1
    ret
.endfunc
`

// nativeHostWork is the stub id for the Fig. 5b host-work native.
const nativeHostWork = 100

// PointerChaseMode selects a Figure 5 configuration.
type PointerChaseMode int

const (
	// ChaseFlick migrates to the NxP for every call (Fig. 5a Flick line).
	ChaseFlick PointerChaseMode = 0
	// ChaseBaseline keeps the thread on the host, traversing over PCIe.
	ChaseBaseline PointerChaseMode = 1
	// ChaseFlickInterval inserts 100 µs of host work per call (Fig. 5b).
	ChaseFlickInterval PointerChaseMode = 2
	// ChaseBaselineInterval is the Fig. 5b baseline.
	ChaseBaselineInterval PointerChaseMode = 3
)

// PointerChaseConfig parameterizes one measurement point.
type PointerChaseConfig struct {
	Nodes int // list length traversed per call (the X axis)
	Calls int // measured calls (averaged)
	Mode  PointerChaseMode
	// ExtraMigrationLatency models slower migration mechanisms (the
	// dashed 500 µs / 1 ms curves).
	ExtraMigrationLatency sim.Duration
	// Spread is the byte range nodes are scattered over (default 4 GB,
	// the board DRAM size).
	Spread uint64
	// Seed fixes node placement.
	Seed int64
	// Params overrides the machine.
	Params *platform.Params
	// Obs, when non-nil, receives the run's observability report.
	Obs *sim.Observer
}

// RunPointerChase executes one configuration and returns the average time
// per call.
func RunPointerChase(cfg PointerChaseConfig) (sim.Duration, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 8
	}
	if cfg.Nodes <= 0 {
		return 0, fmt.Errorf("workloads: pointer chase needs Nodes > 0")
	}
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"chase.fasm": pointerChaseSource},
		Params:  cfg.Params,
		Obs:     cfg.Obs,
	})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	sys.Runtime.ExtraMigrationLatency = cfg.ExtraMigrationLatency
	sys.RegisterNative(nativeHostWork, func(p *sim.Proc, c *cpu.Core) error {
		p.Sleep(sim.Duration(c.Context().Reg(isa.A0)) * sim.Nanosecond)
		return nil
	})

	head, err := buildChain(sys, cfg)
	if err != nil {
		return 0, err
	}
	elapsedNS, err := sys.RunProgram("main", head, uint64(cfg.Nodes), uint64(cfg.Calls), uint64(cfg.Mode))
	cfg.Obs.Collect(sys)
	if err != nil {
		return 0, err
	}
	return sim.Duration(elapsedNS) * sim.Nanosecond / sim.Duration(cfg.Calls), nil
}

// buildChain scatters a circular linked list through the NxP heap region
// and returns the head's virtual address. Nodes are 8-byte-aligned and
// placed pseudo-randomly across the spread, per §V-B.
func buildChain(sys *flick.System, cfg PointerChaseConfig) (uint64, error) {
	spread := cfg.Spread
	if spread == 0 {
		spread = sys.Machine.Params.NxPDDR - (64 << 20)
	}
	base, err := sys.Program.NxPHeap.Alloc(spread, 4096)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	n := cfg.Nodes
	addrs := make([]uint64, n)
	seen := make(map[uint64]bool, n)
	for i := range addrs {
		for {
			a := base + (rng.Uint64()%(spread-8))&^7
			if !seen[a] {
				seen[a] = true
				addrs[i] = a
				break
			}
		}
	}
	// Link each node to the next; the last closes the cycle so any number
	// of traversal calls keeps following valid pointers.
	var buf [8]byte
	for i, a := range addrs {
		next := addrs[(i+1)%n]
		binary.LittleEndian.PutUint64(buf[:], next)
		if err := writeVA(sys, a, buf[:]); err != nil {
			return 0, err
		}
	}
	return addrs[0], nil
}

// writeVA is a loader-style backdoor write at a program virtual address
// (no timing; experiment setup happens "before the clock starts").
func writeVA(sys *flick.System, va uint64, b []byte) error {
	w, err := sys.Kernel.Tables().Walk(va)
	if err != nil {
		return err
	}
	return sys.Kernel.Phys().Write(w.PhysAddr, b)
}

// PointerChasePoint is one Figure 5 sample.
type PointerChasePoint struct {
	Nodes      int
	Flick      sim.Duration // per call
	Baseline   sim.Duration
	Normalized float64 // baseline/flick: >1 means Flick wins
}

// MeasureChasePoint measures one Figure 5 sample: the Flick and the
// host-direct traversal of the same seeded chain at one list length.
// Both sides share the seed so the normalization compares identical node
// placements. The measurement is self-contained (two private machines),
// so points can run concurrently as scheduler jobs. params, when non-nil,
// overrides both machines' configuration (the fault-injection soak uses
// this); obs, when non-nil, receives both machines' observability reports.
func MeasureChasePoint(nodes, calls int, extra sim.Duration, interval bool, seed int64, params *platform.Params, obs *sim.Observer) (PointerChasePoint, error) {
	flickMode, baseMode := ChaseFlick, ChaseBaseline
	if interval {
		flickMode, baseMode = ChaseFlickInterval, ChaseBaselineInterval
	}
	f, err := RunPointerChase(PointerChaseConfig{
		Nodes: nodes, Calls: calls, Mode: flickMode, ExtraMigrationLatency: extra, Seed: seed, Params: params, Obs: obs})
	if err != nil {
		return PointerChasePoint{}, fmt.Errorf("flick n=%d: %w", nodes, err)
	}
	b, err := RunPointerChase(PointerChaseConfig{Nodes: nodes, Calls: calls, Mode: baseMode, Seed: seed, Params: params, Obs: obs})
	if err != nil {
		return PointerChasePoint{}, fmt.Errorf("baseline n=%d: %w", nodes, err)
	}
	return PointerChasePoint{
		Nodes:      nodes,
		Flick:      f,
		Baseline:   b,
		Normalized: float64(b) / float64(f),
	}, nil
}
