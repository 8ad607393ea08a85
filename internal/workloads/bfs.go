package workloads

import (
	"encoding/binary"
	"fmt"

	"flick"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/platform"
	"flick/internal/sim"
)

// bfsSource is the Table IV application shell. The traversal kernel runs
// either on the NxP (Flick migrates the thread next to the graph) or on
// the host (the baseline traverses board DRAM over PCIe). Per the paper,
// the traversal calls a dummy host function for every newly discovered
// vertex, so the Flick run migrates back and forth per vertex.
const bfsSource = `
; Table IV: Graph500-style BFS.

.func main isa=host
    ; a0 = iterations, a1 = mode (0 flick, 1 baseline)
    mov  t3, a0
    mov  t4, a1
    mov  a0, t4
    call bfs_iter        ; warm-up iteration
    sys  4
    mov  t5, a0
loop:
    mov  a0, t4
    call bfs_iter
    addi t3, t3, -1
    bne  t3, zr, loop
    sys  4
    sub  a0, a0, t5      ; elapsed ns over the measured iterations
    halt
.endfunc

.func bfs_iter isa=host
    push ra
    bne  a0, zr, base
    call bfs_nxp         ; cross-ISA call: thread migrates to the NxP
    pop  ra
    ret
base:
    call bfs_direct      ; baseline: stay on the host
    pop  ra
    ret
.endfunc

.func bfs_nxp isa=nxp
    native 101
.endfunc

.func bfs_direct isa=host
    native 102
.endfunc

; The per-vertex task of §V-C: a host function called for every newly
; discovered vertex. It immediately returns.
.func bfs_visit isa=host
    ret
.endfunc
`

// Native stub ids for the BFS kernels.
const (
	nativeBFSNxP  = 101
	nativeBFSHost = 102
)

// bfsLayout holds the virtual addresses of the BFS working set, all in the
// board's DRAM (the paper stores the graphs in the NxP-side DRAM).
type bfsLayout struct {
	offsetsVA  uint64 // V+1 × u64
	targetsVA  uint64 // E × u64
	visitedVA  uint64 // V bytes
	queueVA    uint64 // V × u64
	countersVA uint64 // head, tail × u64
	vertices   int
	source     uint64
	visitVA    uint64 // the dummy host function
}

// BFSConfig parameterizes one Table IV cell.
type BFSConfig struct {
	Dataset    Dataset
	Iterations int // measured iterations (paper: 10)
	Baseline   bool
	// Graph is the graph to traverse (GenerateRMAT of Dataset); runs only
	// read it, so they may share one.
	Graph  *CSR
	Params *platform.Params
	// SkipVisitCall drops the per-vertex host call (ablation).
	SkipVisitCall bool
	// Obs, when non-nil, receives the run's observability report.
	Obs *sim.Observer
}

// BFSResult is one Table IV measurement.
type BFSResult struct {
	Dataset    Dataset
	PerIter    sim.Duration
	Visited    int
	Checksum   uint64
	Migrations int // N2H call migrations observed (Flick runs)
}

// RunBFS builds the machine, loads the synthetic graph into board DRAM,
// and measures the average BFS iteration time.
func RunBFS(cfg BFSConfig) (BFSResult, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	g := cfg.Graph
	wantVisited, wantSum := ReferenceBFS(g, 0)

	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"bfs.fasm": bfsSource},
		Params:  cfg.Params,
		Obs:     cfg.Obs,
	})
	if err != nil {
		return BFSResult{}, err
	}
	defer sys.Close()
	lay, err := loadGraph(sys, g)
	if err != nil {
		return BFSResult{}, err
	}
	if cfg.SkipVisitCall {
		lay.visitVA = 0
	}

	var lastVisited int
	var lastSum uint64
	kernel := func(p *sim.Proc, c *cpu.Core) error {
		visited, sum, err := bfsKernel(p, c, lay)
		lastVisited, lastSum = visited, sum
		if err != nil {
			return err
		}
		c.Context().SetReg(isa.A0, uint64(visited))
		return nil
	}
	sys.RegisterNative(nativeBFSNxP, kernel)
	sys.RegisterNative(nativeBFSHost, kernel)

	mode := uint64(0)
	if cfg.Baseline {
		mode = 1
	}
	elapsedNS, err := sys.RunProgram("main", uint64(cfg.Iterations), mode)
	cfg.Obs.Collect(sys)
	if err != nil {
		return BFSResult{}, err
	}
	if lastVisited != wantVisited || (lay.visitVA != 0 && lastSum != wantSum) {
		return BFSResult{}, fmt.Errorf("workloads: BFS mismatch: visited %d/%d checksum %#x/%#x",
			lastVisited, wantVisited, lastSum, wantSum)
	}
	return BFSResult{
		Dataset:    cfg.Dataset,
		PerIter:    sim.Duration(elapsedNS) * sim.Nanosecond / sim.Duration(cfg.Iterations),
		Visited:    lastVisited,
		Checksum:   lastSum,
		Migrations: sys.Runtime.Stats().N2HCalls,
	}, nil
}

// loadGraph copies the CSR into board DRAM via the loader backdoor and
// returns the layout.
func loadGraph(sys *flick.System, g *CSR) (bfsLayout, error) {
	v := g.NumVertices()
	e := g.NumEdges()
	heap := sys.Program.NxPHeap

	alloc := func(n uint64) (uint64, error) { return heap.Alloc(n, 64) }
	var lay bfsLayout
	var err error
	if lay.offsetsVA, err = alloc(uint64(v+1) * 8); err != nil {
		return lay, err
	}
	if lay.targetsVA, err = alloc(uint64(e) * 8); err != nil {
		return lay, err
	}
	if lay.visitedVA, err = alloc(uint64(v)); err != nil {
		return lay, err
	}
	if lay.queueVA, err = alloc(uint64(v) * 8); err != nil {
		return lay, err
	}
	if lay.countersVA, err = alloc(16); err != nil {
		return lay, err
	}
	lay.vertices = v
	lay.source = 0
	if lay.visitVA, err = sys.Symbol("bfs_visit"); err != nil {
		return lay, err
	}

	if err := storeU64s(sys, lay.offsetsVA, g.Offsets); err != nil {
		return lay, err
	}
	if err := storeU64s(sys, lay.targetsVA, g.Targets); err != nil {
		return lay, err
	}
	return lay, nil
}

// storeU64s bulk-writes a u64 slice at a program VA through the NxP data
// window's linear mapping (setup-time backdoor, untimed).
func storeU64s(sys *flick.System, va uint64, vals []uint64) error {
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	w, err := sys.Kernel.Tables().Walk(va)
	if err != nil {
		return err
	}
	return sys.Kernel.Phys().Write(w.PhysAddr, buf)
}

// bfsKernel is the traversal, written against the timed virtual-memory
// interface so every access pays the executing core's real cost: running
// on the NxP core the graph reads are local (267 ns); on the host core
// they cross PCIe (≈825 ns). The queue, visited bytes, and head/tail
// counters live in board DRAM alongside the graph. Per newly discovered
// vertex it calls the dummy host function — on the NxP this is a full
// Flick round trip.
func bfsKernel(p *sim.Proc, c *cpu.Core, lay bfsLayout) (int, uint64, error) {
	headVA := lay.countersVA
	tailVA := lay.countersVA + 8

	// Clear the visited map (timed, 8 bytes per store).
	var zeros [8]byte
	for off := 0; off < lay.vertices; off += 8 {
		n := min(8, lay.vertices-off)
		if err := c.WriteVirt(p, lay.visitedVA+uint64(off), zeros[:n]); err != nil {
			return 0, 0, err
		}
	}

	// Seed the frontier with the source.
	if err := c.WriteU64Virt(p, lay.queueVA, lay.source); err != nil {
		return 0, 0, err
	}
	if err := c.WriteU64Virt(p, headVA, 0); err != nil {
		return 0, 0, err
	}
	if err := c.WriteU64Virt(p, tailVA, 1); err != nil {
		return 0, 0, err
	}
	if err := writeByteVirt(p, c, lay.visitedVA+lay.source, 1); err != nil {
		return 0, 0, err
	}

	visited := 0
	var checksum uint64
	for {
		head, err := c.ReadU64Virt(p, headVA)
		if err != nil {
			return 0, 0, err
		}
		tail, err := c.ReadU64Virt(p, tailVA)
		if err != nil {
			return 0, 0, err
		}
		if head == tail {
			break
		}
		u, err := c.ReadU64Virt(p, lay.queueVA+head*8)
		if err != nil {
			return 0, 0, err
		}
		if err := c.WriteU64Virt(p, headVA, head+1); err != nil {
			return 0, 0, err
		}
		visited++
		checksum ^= u
		c.ChargeCycles(p, 20) // per-vertex loop bookkeeping

		off0, err := c.ReadU64Virt(p, lay.offsetsVA+u*8)
		if err != nil {
			return 0, 0, err
		}
		off1, err := c.ReadU64Virt(p, lay.offsetsVA+(u+1)*8)
		if err != nil {
			return 0, 0, err
		}
		for i := off0; i < off1; i++ {
			t, err := c.ReadU64Virt(p, lay.targetsVA+i*8)
			if err != nil {
				return 0, 0, err
			}
			seen, err := readByteVirt(p, c, lay.visitedVA+t)
			if err != nil {
				return 0, 0, err
			}
			c.ChargeCycles(p, 10) // per-edge loop bookkeeping
			if seen != 0 {
				continue
			}
			if err := writeByteVirt(p, c, lay.visitedVA+t, 1); err != nil {
				return 0, 0, err
			}
			curTail, err := c.ReadU64Virt(p, tailVA)
			if err != nil {
				return 0, 0, err
			}
			if err := c.WriteU64Virt(p, lay.queueVA+curTail*8, t); err != nil {
				return 0, 0, err
			}
			if err := c.WriteU64Virt(p, tailVA, curTail+1); err != nil {
				return 0, 0, err
			}
			if lay.visitVA != 0 {
				// The per-vertex host task: on the NxP core this fetch
				// faults and triggers a full NxP→host→NxP migration.
				if _, err := c.Call(p, lay.visitVA, t); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return visited, checksum, nil
}

func readByteVirt(p *sim.Proc, c *cpu.Core, va uint64) (byte, error) {
	var b [1]byte
	if err := c.ReadVirt(p, va, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func writeByteVirt(p *sim.Proc, c *cpu.Core, va uint64, v byte) error {
	return c.WriteVirt(p, va, []byte{v})
}

// Table4Row is one row of the paper's Table IV: one dataset traversed
// both ways.
type Table4Row struct {
	Dataset  Dataset
	Baseline sim.Duration
	Flick    sim.Duration
	Speedup  float64 // baseline/flick
}
