// Package platform assembles the simulated evaluation machine of the
// paper's Table I: a dual-socket-class x86 host with DDR4, and a
// PCIe-attached FPGA board carrying a 200 MHz in-order NxP core, 4 GB of
// DDR3, block RAM for thread stacks, and a register file for the DMA
// mailbox — all glued by a PCIe 3.0 x8 bridge with BAR windows and TLB
// remapping, forming one shared-memory heterogeneous-ISA multicore.
//
// The latency parameters are calibrated against the paper's measurements:
// a host load from board DRAM costs ≈825 ns round trip, an NxP load from
// its local DRAM ≈267 ns (§V).
package platform

import (
	"fmt"
	"slices"
	"strings"

	"flick/internal/cpu"
	"flick/internal/faultinj"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/paging"
	"flick/internal/pcie"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// Board-local physical addresses (the NxP's native view). Board 0 sits
// exactly at these bases; additional boards are strided above them (see
// Board.LocalDDR and friends), so placement in the shared NxP view stays
// global and every board core shares one TLB remap programming.
const (
	LocalBRAMBase = 0x6000_0000
	LocalRegsBase = 0x7000_0000
	LocalDDRBase  = 0x8000_0000
)

// BoardRegsStride spaces the boards' mailbox register files inside the
// [LocalRegsBase, LocalDDRBase) window.
const BoardRegsStride = 0x1_0000

// Params sizes and calibrates the machine.
type Params struct {
	HostDRAM uint64 // bytes of host memory
	NxPDDR   uint64 // bytes of board DRAM (sparse; default 4 GB)
	NxPBRAM  uint64 // bytes of board block RAM

	// HostCores is the number of host cores sharing the run queue
	// (default 1; the Table I server has 12, but the paper's experiments
	// are single-threaded).
	HostCores int

	HostCycle sim.Duration // 2.4 GHz
	NxPCycle  sim.Duration // 200 MHz

	// Boards is the number of PCIe-attached NxP boards (default 1). Each
	// board carries its own NxP core, DDR/BRAM, BAR windows, TLB pair,
	// mailbox, and DMA engine; the kernel's board scheduler places
	// wrong-ISA calls across them (see docs/SCALING.md). Board 0 is
	// bit-identical to the single-board machine.
	Boards int
	// BoardPolicy selects the kernel's board-placement policy:
	// "round-robin" (default), "least-loaded", or "affinity".
	BoardPolicy string
	// BoardISAs names each board's core family by registered backend name
	// (entry i → board i; missing entries and empty strings default to
	// "nxp"). Heterogeneous boards make the kernel's board scheduler
	// capability-aware, and three or more distinct core ISAs switch every
	// core into PTE-tagged execution mode (see docs/ISAS.md).
	BoardISAs []string

	// EnableDSP adds a second board core with the third ISA (the paper's
	// §IV-C3 "more than two ISAs" extension). The DSP lives on board 0.
	// Unless every board is dsp too, that makes three distinct core ISAs,
	// so all cores run in PTE-tagged execution mode instead of NX polarity.
	EnableDSP bool
	DSPCycle  sim.Duration // 400 MHz when enabled

	Link        pcie.LinkParams
	DMAOverhead sim.Duration

	HostITLB, HostDTLB int
	NxPITLB, NxPDTLB   int

	// NxPWindowPage is the page size used to map the NxP data window
	// (default 1 GiB — the paper's four-entry TLB coverage; set 2 MiB
	// for the huge-page ablation).
	NxPWindowPage   uint64
	NxPICacheLines  int
	HostICacheLines int

	// Effective latencies of one data access, excluding any link
	// crossing (the link cost is computed from Link).
	HostDRAMAccess sim.Duration // host core → host DRAM (cache-filtered)
	HostDRAMDevice sim.Duration // raw DRAM array latency seen by remote readers
	NxPDDRAccess   sim.Duration // NxP core → board DRAM (the paper's 267 ns)
	NxPBRAMAccess  sim.Duration
	RegsAccess     sim.Duration // NxP core → local registers

	HostWalkRead  sim.Duration // host page walker per level (cached walks)
	NxPWalkPerReq sim.Duration // NxP MMU microcode dispatch per miss

	HostFetchLine sim.Duration // host I-miss line fill

	// Faults, when non-empty, enables deterministic fault injection from
	// the parsed spec (faultinj grammar: "site.kind=prob[:dur],...") and
	// switches the kernel and mailbox into their recovery modes. Empty
	// keeps the perfect-hardware model, bit-identical to a build without
	// the fault plane.
	Faults string
	// FaultSeed seeds the per-rule splitmix64 streams; the same
	// (FaultSeed, Faults) pair reproduces a run byte-for-byte.
	FaultSeed int64
	// Recovery overrides the kernel's retry/timeout parameters; zero
	// fields take kernel.DefaultRecovery values.
	Recovery kernel.Recovery
	// TrafficMetrics registers the kernel's traffic-plane instruments
	// (migration-latency histogram, run-queue and per-board gauges; see
	// docs/TRAFFIC.md). Off by default so baseline metrics snapshots
	// carry no new keys.
	TrafficMetrics bool
}

// DefaultParams returns the calibrated Table I machine.
func DefaultParams() Params {
	return Params{
		HostDRAM:        256 << 20,
		NxPDDR:          4 << 30,
		NxPBRAM:         1 << 20,
		HostCycle:       417 * sim.Picosecond, // 2.4 GHz
		NxPCycle:        5 * sim.Nanosecond,   // 200 MHz
		Link:            pcie.PCIe3x8(),
		DMAOverhead:     100 * sim.Nanosecond,
		HostITLB:        128,
		HostDTLB:        128,
		NxPITLB:         16, // paper §IV-A
		NxPDTLB:         16,
		NxPICacheLines:  256, // 16 KiB
		HostICacheLines: 512,
		HostDRAMAccess:  4 * sim.Nanosecond,
		HostDRAMDevice:  90 * sim.Nanosecond,
		NxPDDRAccess:    267 * sim.Nanosecond, // paper §V
		NxPBRAMAccess:   10 * sim.Nanosecond,  // 2 cycles
		RegsAccess:      50 * sim.Nanosecond,
		HostWalkRead:    20 * sim.Nanosecond,
		NxPWalkPerReq:   250 * sim.Nanosecond, // microcoded MMU dispatch
		HostFetchLine:   1 * sim.Nanosecond,
	}
}

// RunAheadLookahead is the conservative lookahead window of the run-ahead
// engine: the minimum virtual time any cross-board influence needs to
// reach another board's local state. Every cross-domain path in this
// machine crosses the PCIe link, and the cheapest full crossing is a host
// load from board memory — one 8-byte link read round-trip plus the DRAM
// device latency behind it (the paper's ~825 ns host-load-from-board
// figure on the default link).
func (p *Params) RunAheadLookahead() sim.Duration {
	return p.Link.ReadLatency(8) + p.HostDRAMDevice
}

// Board is one PCIe-attached NxP board: its memories, BAR windows, and
// descriptor DMA engine (its cores are in Machine.BoardCores). Board 0
// aliases the Machine's single-board fields (NxPDDR, DDRBar, DMA, ...),
// which keep their historical names and behavior.
type Board struct {
	Index int

	DDR  *mem.Region
	BRAM *mem.Region

	DDRBar  pcie.BAR
	BRAMBar pcie.BAR
	DMA     *pcie.Engine

	// Board-local physical bases in the shared NxP view. Board 0 sits at
	// the Local*Base constants; later boards are strided above them.
	LocalDDR  uint64
	LocalBRAM uint64
	LocalRegs uint64
}

// BoardCore is one board-side core together with the board it sits on.
type BoardCore struct {
	Board *Board
	Core  *cpu.Core
}

// coreTLBSet records the TLBs belonging to one core, in build order — the
// fan-out set a TLB shootdown IPI to that core must flush. The core itself
// rides along so the shootdown can also drop its superblock cache.
type coreTLBSet struct {
	name string
	core *cpu.Core
	tlbs []*tlb.TLB
}

// Machine is the assembled platform.
type Machine struct {
	Params Params
	Env    *sim.Env

	HostView *mem.AddressSpace
	NxPView  *mem.AddressSpace
	HostDRAM *mem.Region
	NxPDDR   *mem.Region // board 0's DDR
	NxPBRAM  *mem.Region // board 0's BRAM

	Bridge  *pcie.Bridge
	DDRBar  pcie.BAR     // board 0's DDR BAR
	BRAMBar pcie.BAR     // board 0's BRAM BAR
	DMA     *pcie.Engine // board 0's DMA engine

	// Boards lists every NxP board in index order (length Params.Boards,
	// minimum 1). Boards[0] owns the aliased fields above.
	Boards []*Board

	Alloc  *paging.FrameAlloc
	Tables *paging.Tables

	Natives *cpu.NativeTable
	Host    *cpu.Core // the first host core
	Hosts   []*cpu.Core
	NxP     *cpu.Core // board 0's primary core
	// BoardCores lists every board-side core with its board, in build
	// order: board 0's primary core, the DSP when Params.EnableDSP, then
	// the later boards' primary cores.
	BoardCores []BoardCore

	Kernel *kernel.Kernel

	// Injector is the machine's fault-injection plane (nil when
	// Params.Faults is empty — every consumer is nil-safe).
	Injector *faultinj.Injector

	nxpTLBs     []*tlb.TLB // all board-side TLBs, build order
	coreTLBSets []coreTLBSet

	boardISAs []isa.ISA // each board's primary core family
	tagged    bool      // PTE-tagged execution (3+ distinct core ISAs)
}

// BoardISA returns the primary core family of one board.
func (m *Machine) BoardISA(board int) isa.ISA { return m.boardISAs[board] }

// TaggedISAs reports whether the machine runs in PTE-tagged execution mode
// (more than two distinct core ISAs, paper §IV-C3) rather than NX
// polarity.
func (m *Machine) TaggedISAs() bool { return m.tagged }

// boardSfx names board i's instanced components: board 0 keeps the bare
// historical names, later boards append their index.
func boardSfx(i int) string {
	if i == 0 {
		return ""
	}
	return fmt.Sprintf("%d", i)
}

// ParseBoardISAs validates a comma-separated per-board ISA list from a
// flag ("nxp,cmp,nxp"; empty entries default per board). Entry i names
// board i's core family; listing more entries than boards is an error.
func ParseBoardISAs(s string, boards int) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > boards {
		return nil, fmt.Errorf("platform: %d board ISAs for %d boards", len(parts), boards)
	}
	for _, p := range parts {
		if p == "" {
			continue
		}
		if b, ok := isa.ByName(p); !ok || b.Host() {
			return nil, fmt.Errorf("platform: unknown board isa %q (want %s)", p, strings.Join(isa.BoardNames(), ", "))
		}
	}
	return parts, nil
}

// HasNxPBoard reports whether a machine of the given board count, its
// families named by a ParseBoardISAs list, has an NxP board. Empty
// entries and boards past the list's end are NxP.
func HasNxPBoard(names []string, boards int) bool {
	isas, err := resolveBoardISAs(names, boards)
	return err == nil && slices.Contains(isas, isa.ISANxP)
}

// resolveBoardISAs expands the per-board name list to one backend per
// board, defaulting to NxP.
func resolveBoardISAs(names []string, boards int) ([]isa.ISA, error) {
	if len(names) > boards {
		return nil, fmt.Errorf("platform: %d board ISAs for %d boards", len(names), boards)
	}
	out := make([]isa.ISA, boards)
	for i := range out {
		out[i] = isa.ISANxP
		if i < len(names) && names[i] != "" {
			b, ok := isa.ByName(names[i])
			if !ok || b.Host() {
				return nil, fmt.Errorf("platform: unknown board isa %q (want %s)", names[i], strings.Join(isa.BoardNames(), ", "))
			}
			out[i] = b.ISA()
		}
	}
	return out, nil
}

// boardStride spaces board-local windows: the next power of two holding
// size, at least 1 MiB.
func boardStride(size uint64) uint64 {
	s := uint64(1) << 20
	for s < size {
		s <<= 1
	}
	return s
}

// New builds the machine: memories, bridge enumeration, TLB remap
// programming (the host "driver" computing BAR deltas, Fig. 3), page
// tables, cores, and kernel.
func New(params Params) (*Machine, error) {
	m := &Machine{Params: params, Env: sim.NewEnv()}

	boardPolicy, err := kernel.ParseBoardPolicy(params.BoardPolicy)
	if err != nil {
		return nil, err
	}
	nBoards := params.Boards
	if nBoards <= 0 {
		nBoards = 1
	}
	if m.boardISAs, err = resolveBoardISAs(params.BoardISAs, nBoards); err != nil {
		return nil, err
	}
	// Three or more distinct core ISAs need PTE ISA tags (§IV-C3); two get
	// by on NX polarity.
	distinct := map[isa.ISA]bool{isa.ISAHost: true}
	for _, is := range m.boardISAs {
		distinct[is] = true
	}
	if params.EnableDSP {
		distinct[isa.ISADsp] = true
	}
	m.tagged = len(distinct) > 2

	if params.Faults != "" {
		spec, err := faultinj.Parse(params.Faults)
		if err != nil {
			return nil, err
		}
		if !spec.Empty() {
			m.Injector = faultinj.New(m.Env, params.FaultSeed, spec)
		}
	}

	m.HostView = mem.NewAddressSpace("host-view")
	m.NxPView = mem.NewAddressSpace("nxp-view")
	m.HostDRAM = mem.NewRAM("host-dram", params.HostDRAM)
	ddrStride := boardStride(params.NxPDDR)
	bramStride := boardStride(params.NxPBRAM)
	for i := 0; i < nBoards; i++ {
		b := &Board{
			Index:     i,
			DDR:       mem.NewRAM("nxp-ddr"+boardSfx(i), params.NxPDDR),
			BRAM:      mem.NewRAM("nxp-bram"+boardSfx(i), params.NxPBRAM),
			LocalDDR:  LocalDDRBase + uint64(i)*ddrStride,
			LocalBRAM: LocalBRAMBase + uint64(i)*bramStride,
			LocalRegs: LocalRegsBase + uint64(i)*BoardRegsStride,
		}
		if b.LocalBRAM+params.NxPBRAM > LocalRegsBase {
			return nil, fmt.Errorf("platform: %d boards of %d KiB BRAM overflow the board-local BRAM window", nBoards, params.NxPBRAM>>10)
		}
		m.Boards = append(m.Boards, b)
	}
	m.NxPDDR = m.Boards[0].DDR
	m.NxPBRAM = m.Boards[0].BRAM

	// Host DRAM is visible at 0 from both sides (the PCIe bridge maps
	// host memory into the NxP address space, §III-A).
	if err := m.HostView.Map(0, m.HostDRAM); err != nil {
		return nil, err
	}
	if err := m.NxPView.Map(0, m.HostDRAM); err != nil {
		return nil, err
	}
	// Board resources at their board-local addresses in the shared view.
	for _, b := range m.Boards {
		if err := m.NxPView.Map(b.LocalDDR, b.DDR); err != nil {
			return nil, err
		}
		if err := m.NxPView.Map(b.LocalBRAM, b.BRAM); err != nil {
			return nil, err
		}
	}

	// PCIe enumeration: the host assigns BAR windows above its DRAM, in
	// board order.
	m.Bridge = pcie.NewBridge(params.Link, m.HostView, 0x1_0000_0000)
	for _, b := range m.Boards {
		if b.DDRBar, err = m.Bridge.Expose(b.DDR, b.LocalDDR); err != nil {
			return nil, err
		}
		if b.BRAMBar, err = m.Bridge.Expose(b.BRAM, b.LocalBRAM); err != nil {
			return nil, err
		}
	}
	m.DDRBar = m.Boards[0].DDRBar
	m.BRAMBar = m.Boards[0].BRAMBar

	// One descriptor DMA engine per board; board 0 keeps the bare "dma"
	// instance name (and thus the historical metric/fault-site names).
	for i, b := range m.Boards {
		b.DMA = pcie.NewEngineAt(m.Env, params.Link, params.DMAOverhead, "dma"+boardSfx(i))
		b.DMA.SetInjector(m.Injector)
	}
	m.DMA = m.Boards[0].DMA

	// Kernel page tables in host DRAM.
	if m.Alloc, err = paging.NewFrameAlloc(1<<20, 47<<20); err != nil {
		return nil, err
	}
	if m.Tables, err = paging.New(m.HostView, m.Alloc); err != nil {
		return nil, err
	}

	m.Natives = cpu.NewNativeTable()
	m.buildCores()
	// Conservative run-ahead (internal/sim/domain.go), one domain per
	// board; EnableRunAhead itself refuses under FLICKSIM_NOPREDECODE.
	m.Env.EnableRunAhead(nBoards, params.RunAheadLookahead())

	// Publish every core's counters (and those of its MMUs and TLBs) into
	// the environment's metrics registry. Registration is gauge-based, so
	// the simulation hot loops are untouched; the registry samples the
	// components only when a report is taken.
	reg := m.Env.Metrics()
	cores := append([]*cpu.Core{}, m.Hosts...)
	for _, bc := range m.BoardCores {
		cores = append(cores, bc.Core)
	}
	for _, c := range cores {
		c.Register(reg)
		for _, u := range []*mmu.MMU{c.IMMU(), c.DMMU()} {
			u.Register(reg)
			u.TLB.Register(reg)
		}
	}

	// NxP stack windows for boards beyond the first (board 0 uses the
	// NxPStack* fields).
	var boardStackPAs []uint64
	for _, b := range m.Boards[1:] {
		boardStackPAs = append(boardStackPAs, b.BRAMBar.HostBase+BRAMMailboxCarve)
	}

	// Each board's core families, for capability-aware placement: the
	// board's primary core, plus the DSP riding on board 0 when enabled.
	boardCaps := make([][]isa.ISA, nBoards)
	for _, bc := range m.BoardCores {
		boardCaps[bc.Board.Index] = append(boardCaps[bc.Board.Index], bc.Core.ISA())
	}

	m.Kernel = kernel.New(kernel.Config{
		Env:      m.Env,
		Phys:     m.HostView,
		Alloc:    m.Alloc,
		Tables:   m.Tables,
		Costs:    kernel.DefaultCosts(),
		Faults:   m.Injector,
		Recovery: params.Recovery,
		Layout: kernel.Layout{
			NxPDataPA:      m.DDRBar.HostBase,
			NxPDataSize:    params.NxPDDR,
			NxPHugePage:    params.NxPWindowPage,
			NxPStackPA:     m.BRAMBar.HostBase + BRAMMailboxCarve,
			NxPStackRegion: params.NxPBRAM - BRAMMailboxCarve,
			TaggedISAs:     m.tagged,
			BoardStackPAs:  boardStackPAs,
		},
		Boards:         nBoards,
		BoardPolicy:    boardPolicy,
		BoardISAs:      boardCaps,
		TrafficMetrics: params.TrafficMetrics,
	})
	for _, h := range m.Hosts {
		h.SetSysHandler(m.Kernel.Syscall)
		h.SetFaultHandler(m.Kernel.HostFault)
		m.Kernel.AttachHostCore(h)
	}
	if m.Injector != nil {
		m.Kernel.SetShootdownTargets(m.ShootdownTargets())
	}
	return m, nil
}

// ShootdownTargets lists every TLB set a shootdown IPI must reach, one
// entry per core in deterministic build order (hosts, then board cores).
// The fan-out is derived from the per-core TLB sets recorded while the
// cores were built, so it cannot silently skip a board's TLBs.
func (m *Machine) ShootdownTargets() []kernel.ShootdownTarget {
	out := make([]kernel.ShootdownTarget, 0, len(m.coreTLBSets))
	for _, set := range m.coreTLBSets {
		ts, core := set.tlbs, set.core
		out = append(out, kernel.ShootdownTarget{
			Name: set.name,
			Flush: func(va uint64) {
				for _, t := range ts {
					t.FlushPage(va)
				}
				// A shootdown means a mapping or its permissions changed;
				// the superblock cache is physically tagged and re-checked
				// through the MMU each step, but dropping it here keeps
				// the invalidation contract conservative (hardware flushes
				// its decode pipeline on TLB invalidation too).
				core.InvalidateSuperblocks()
			},
		})
	}
	return out
}

// BRAMMailboxCarve reserves the low BRAM bytes for the DMA mailbox rings;
// NxP thread stacks start above it.
const BRAMMailboxCarve = 8 << 10

func (m *Machine) buildCores() {
	p := m.Params
	// In 3+-ISA configurations every core uses PTE-tagged execution;
	// tag = ISA id + 1.
	tagOf := func(is isa.ISA) uint8 {
		if !m.tagged {
			return 0
		}
		return uint8(is) + 1
	}

	// Host cores: each with its own MMUs/TLBs/I-cache, sharing the page
	// tables (one OS image) and native table.
	hostWalk := func(pa uint64) sim.Duration { return p.HostWalkRead }
	nHost := p.HostCores
	if nHost <= 0 {
		nHost = 1
	}
	for i := 0; i < nHost; i++ {
		name := fmt.Sprintf("host%d", i)
		hITLB := tlb.New(name+"-itlb", p.HostITLB)
		hDTLB := tlb.New(name+"-dtlb", p.HostDTLB)
		m.Hosts = append(m.Hosts, cpu.New(cpu.Config{
			Name: name, ISA: isa.ISAHost,
			IMMU:          mmu.New(name+"-immu", hITLB, m.Tables, hostWalk, 0),
			DMMU:          mmu.New(name+"-dmmu", hDTLB, m.Tables, hostWalk, 0),
			Phys:          m.HostView,
			CycleTime:     p.HostCycle,
			ExecNX:        false,
			ISATag:        tagOf(isa.ISAHost),
			AccessCost:    m.hostAccessCost,
			FetchCost:     func(uint64) sim.Duration { return p.HostFetchLine },
			ICacheLines:   p.HostICacheLines,
			Natives:       m.Natives,
			SpuriousFault: m.Injector.RollFn("cpu", "spurious", name),
		}))
		m.coreTLBSets = append(m.coreTLBSets,
			coreTLBSet{name: name, core: m.Hosts[i], tlbs: []*tlb.TLB{hITLB, hDTLB}})
	}
	m.Host = m.Hosts[0]

	// Board cores: microcoded MMU walkers crossing the link to read
	// host-resident page tables (§IV-A), and TLBs carrying every board's
	// BAR remap windows. Board 0's components keep the bare ISA prefix
	// ("nxp-itlb") the single-board machine always had; later boards
	// append their index. Every board core is named "<isa><board>"; a
	// second core of one family on one board (the DSP core beside a dsp
	// board 0) appends "_<n>", its ordinal among them, to both.
	nxpWalk := func(pa uint64) sim.Duration {
		return p.Link.ReadLatency(8) + p.HostDRAMDevice
	}
	boardCore := func(b *Board, is isa.ISA, cycle sim.Duration) {
		pfx := is.String() + boardSfx(b.Index)
		name := fmt.Sprintf("%s%d", is, b.Index)
		n := 0
		for _, bc := range m.BoardCores {
			if bc.Board == b && bc.Core.ISA() == is {
				n++
			}
		}
		if n > 0 {
			pfx += fmt.Sprintf("_%d", n)
			name += fmt.Sprintf("_%d", n)
		}
		iT := tlb.New(pfx+"-itlb", p.NxPITLB)
		dT := tlb.New(pfx+"-dtlb", p.NxPDTLB)
		for _, t := range []*tlb.TLB{iT, dT} {
			m.addBoardRemaps(t)
			m.nxpTLBs = append(m.nxpTLBs, t)
		}
		c := cpu.New(cpu.Config{
			Name: name, ISA: is,
			IMMU:          mmu.New(pfx+"-immu", iT, m.Tables, nxpWalk, p.NxPWalkPerReq),
			DMMU:          mmu.New(pfx+"-dmmu", dT, m.Tables, nxpWalk, p.NxPWalkPerReq),
			Phys:          m.NxPView,
			CycleTime:     cycle,
			ExecNX:        true, // under NX polarity every board core runs NX text; tags ignore it
			ISATag:        tagOf(is),
			AccessCost:    m.boardAccessCost(b),
			FetchCost:     m.boardFetchCost(b),
			ICacheLines:   p.NxPICacheLines,
			Natives:       m.Natives,
			SpuriousFault: m.Injector.RollFn("cpu", "spurious", name),
			Domain:        boardDomain(b.Index),
			DomainLocal:   m.domainLocal(b),
		})
		m.coreTLBSets = append(m.coreTLBSets, coreTLBSet{name: name, core: c, tlbs: []*tlb.TLB{iT, dT}})
		m.BoardCores = append(m.BoardCores, BoardCore{Board: b, Core: c})
	}
	for _, b := range m.Boards {
		boardCore(b, m.boardISAs[b.Index], p.NxPCycle)
		if b.Index == 0 && p.EnableDSP {
			dspCycle := p.DSPCycle
			if dspCycle == 0 {
				dspCycle = 2500 * sim.Picosecond // 400 MHz
			}
			boardCore(b, isa.ISADsp, dspCycle)
		}
	}
	m.NxP = m.BoardCores[0].Core
}

// boardDomain is the run-ahead domain tag for a board's cores: 1 + board
// index. Both board-0 cores (NxP and DSP) share domain 1: same-domain
// cores share memory with zero latency, and run-ahead keeps same-domain
// processes strictly sequential with each other. On a machine
// whose engine never arms, the tags are never consulted.
func boardDomain(boardIdx int) int { return 1 + boardIdx }

// domainLocal builds the domain-ownership predicate for a board's cores:
// the physical addresses (in the shared NxP view) a run-ahead window may touch
// without leaving its domain. That is the board's own DDR plus its own
// BRAM above the mailbox carve — the mailbox rings are written by the host
// and the DMA engine, so they stay outside every domain, as do the
// board-local device registers and all host-side windows.
func (m *Machine) domainLocal(b *Board) func(pa uint64) bool {
	ddrLo, ddrHi := b.LocalDDR, b.LocalDDR+m.Params.NxPDDR
	bramLo, bramHi := b.LocalBRAM+BRAMMailboxCarve, b.LocalBRAM+m.Params.NxPBRAM
	return func(pa uint64) bool {
		return (pa >= ddrLo && pa < ddrHi) || (pa >= bramLo && pa < bramHi)
	}
}

// addBoardRemaps programs one board-side TLB with the BAR→local window of
// every board, in board order. Resource placement in the shared NxP view
// is global, so the remap programming is identical on every board core.
func (m *Machine) addBoardRemaps(t *tlb.TLB) {
	for _, b := range m.Boards {
		t.AddRemap(tlb.Remap{HostBase: b.DDRBar.HostBase, Size: b.DDR.Size(), Delta: b.DDRBar.RemapDelta()})
		t.AddRemap(tlb.Remap{HostBase: b.BRAMBar.HostBase, Size: b.BRAM.Size(), Delta: b.BRAMBar.RemapDelta()})
	}
}

// ProgramScratchpadHole programs the NxP MMU's translation bypass (§IV-A:
// "the MMU can be configured to open holes in the NxP virtual address
// space, bypassing the page table traversal"): accesses to [va, va+size)
// map linearly onto board-local physical memory at localPA with no page
// walk ever, turning that window into a private scratchpad.
func (m *Machine) ProgramScratchpadHole(va, size, localPA uint64) {
	for _, t := range m.nxpTLBs {
		t.AddHole(tlb.Hole{VABase: va, Size: size, PhysBase: localPA})
	}
}

// ExposeNxPDevice maps a board device (e.g. the mailbox register file)
// into both views and programs the remap windows, returning its BAR.
func (m *Machine) ExposeNxPDevice(r *mem.Region, localBase uint64) (pcie.BAR, error) {
	if err := m.NxPView.Map(localBase, r); err != nil {
		return pcie.BAR{}, err
	}
	bar, err := m.Bridge.Expose(r, localBase)
	if err != nil {
		return pcie.BAR{}, err
	}
	for _, t := range m.nxpTLBs {
		t.AddRemap(tlb.Remap{HostBase: bar.HostBase, Size: r.Size(), Delta: bar.RemapDelta()})
	}
	return bar, nil
}

// hostAccessCost prices a host-core data access by target region: local
// DRAM is cache-filtered and cheap; anything behind a BAR is an
// uncacheable PCIe transaction (reads ≈825 ns round trip).
func (m *Machine) hostAccessCost(pa uint64, size int, write bool) sim.Duration {
	r, _, err := m.HostView.Lookup(pa)
	if err != nil {
		return m.Params.HostDRAMAccess
	}
	if r == m.HostDRAM {
		return m.Params.HostDRAMAccess
	}
	if write {
		return m.Params.Link.WriteLatency(size)
	}
	for _, b := range m.Boards {
		switch r {
		case b.DDR:
			return m.Params.Link.ReadLatency(size) + m.Params.HostDRAMDevice
		case b.BRAM:
			return m.Params.Link.ReadLatency(size) + m.Params.NxPBRAMAccess
		}
	}
	// Device registers.
	return m.Params.Link.ReadLatency(size) + m.Params.RegsAccess
}

// boardAccessCost prices a data access from one board's core. pa is
// post-remap: board resources appear at their board-local addresses. The
// board's own DDR/BRAM are local; host DRAM and *peer boards'* memories
// cross the link like a remote access.
func (m *Machine) boardAccessCost(b *Board) func(pa uint64, size int, write bool) sim.Duration {
	return func(pa uint64, size int, write bool) sim.Duration {
		r, _, err := m.NxPView.Lookup(pa)
		if err != nil {
			return m.Params.NxPDDRAccess
		}
		switch r {
		case b.DDR:
			return m.Params.NxPDDRAccess
		case b.BRAM:
			return m.Params.NxPBRAMAccess
		case m.HostDRAM:
			if write {
				return m.Params.Link.WriteLatency(size)
			}
			return m.Params.Link.ReadLatency(size) + m.Params.HostDRAMDevice
		}
		for _, o := range m.Boards {
			if o == b {
				continue
			}
			switch r {
			case o.DDR:
				if write {
					return m.Params.Link.WriteLatency(size)
				}
				return m.Params.Link.ReadLatency(size) + m.Params.HostDRAMDevice
			case o.BRAM:
				if write {
					return m.Params.Link.WriteLatency(size)
				}
				return m.Params.Link.ReadLatency(size) + m.Params.NxPBRAMAccess
			}
		}
		return m.Params.RegsAccess
	}
}

// boardFetchCost prices one board core's I-cache line fill: instructions
// live in host DRAM (paper §III-D), so cold fills cross the link; fills
// from the board's own DDR are local, from a peer board's DDR remote.
func (m *Machine) boardFetchCost(b *Board) func(pa uint64) sim.Duration {
	return func(pa uint64) sim.Duration {
		r, _, err := m.NxPView.Lookup(pa)
		if err != nil {
			return m.Params.NxPDDRAccess
		}
		switch r {
		case m.HostDRAM:
			return m.Params.Link.ReadLatency(64) + m.Params.HostDRAMDevice
		case b.DDR:
			return m.Params.NxPDDRAccess + 8*m.Params.NxPCycle
		}
		for _, o := range m.Boards {
			if o != b && r == o.DDR {
				return m.Params.Link.ReadLatency(64) + m.Params.HostDRAMDevice
			}
		}
		return m.Params.NxPBRAMAccess
	}
}

// String summarizes the machine, Table I style.
func (m *Machine) String() string {
	return fmt.Sprintf("host %v/cycle + NxP %v/cycle over %v; board DRAM %d MiB at BAR %#x",
		m.Params.HostCycle, m.Params.NxPCycle, m.Params.Link, m.NxPDDR.Size()>>20, m.DDRBar.HostBase)
}
