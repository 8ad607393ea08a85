package cpu

import (
	"errors"
	"fmt"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/paging"
	"flick/internal/sim"
)

// Context is the architectural state of one software thread: sixteen
// general registers and the program counter. The kernel context-switches
// threads by swapping the core's Context pointer.
type Context struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
}

// Reg reads a register; ZR always reads zero.
func (c *Context) Reg(r isa.Reg) uint64 {
	if r == isa.ZR {
		return 0
	}
	return c.Regs[r]
}

// SetReg writes a register; writes to ZR are discarded.
func (c *Context) SetReg(r isa.Reg, v uint64) {
	if r != isa.ZR {
		c.Regs[r] = v
	}
}

// NativeFunc is a host-language implementation of a simulated function. It
// runs when the core executes a `native` stub placed at the function's
// address by the program builder. The function manipulates the thread
// context through the core and charges virtual time on p; returning an
// error aborts the thread.
type NativeFunc func(p *sim.Proc, c *Core) error

// SysHandler receives `sys` instructions — the kernel's system-call entry.
type SysHandler func(p *sim.Proc, c *Core, num int64) error

// FaultHandler receives faults. Returning nil means the fault was handled
// and execution continues (typically with a redirected PC — this is how
// Flick hijacks the faulting call). Returning an error kills the thread.
// The fault is valid only during the call: the core reuses it for its
// next NX fetch fault, so a handler must not keep f or wrap it in its
// error; it may return f itself, which Step copies before it escapes.
type FaultHandler func(p *sim.Proc, c *Core, f *Fault) error

// Config assembles a core.
type Config struct {
	Name      string
	ISA       isa.ISA
	IMMU      *mmu.MMU
	DMMU      *mmu.MMU
	Phys      *mem.AddressSpace
	CycleTime sim.Duration
	// ExecNX gives the core's executable-permission polarity: pages this
	// core may execute have NX == ExecNX. Host: false. NxP: true.
	ExecNX bool
	// ISATag, when nonzero, switches the core to tagged execution (the
	// §IV-C3 multi-ISA extension): pages are executable iff their PTE
	// ISA tag equals this value; ExecNX is then ignored.
	ISATag uint8
	// AccessCost prices one data access to physical address pa.
	AccessCost func(pa uint64, size int, write bool) sim.Duration
	// FetchCost prices one instruction-cache line fill from pa.
	FetchCost func(pa uint64) sim.Duration
	// ICacheLines bounds the I-cache (0 disables caching: every fetch
	// pays FetchCost).
	ICacheLines int
	Natives     *NativeTable
	Sys         SysHandler
	Fault       FaultHandler
	// SpuriousFault, when non-nil, is polled before each instruction; a
	// true return makes the core raise a ghost NX fetch fault (Spurious
	// set) at the current PC — the fault-injection hook for exercising
	// stale-TLB recovery paths. A draw that fires has already ended p's
	// run-ahead window, as Step's other fault path does before delivery.
	SpuriousFault func(p *sim.Proc) bool
	// Domain, when nonzero, brackets every Call window with
	// Proc.BeginCompute(Domain)/EndCompute, letting the core run
	// ahead in run-ahead windows (see internal/sim/domain.go and
	// docs/SCALING.md). The platform sets it to 1+board index on every
	// board core; host cores leave it zero.
	Domain int
	// DomainLocal reports whether a physical address belongs to the core's
	// own domain (its board-local DDR/BRAM). While the core runs ahead in
	// a window, accesses to addresses outside this predicate end the
	// window first. Nil means nothing is local.
	DomainLocal func(pa uint64) bool
}

// Core is one simulated processor. It executes whatever Context is
// installed; the kernel swaps contexts to multiplex threads.
type Core struct {
	cfg    Config
	codec  isa.Backend
	icache *icache
	pd     *sbCache // nil under the reference engine (FLICKSIM_NOPREDECODE)

	ctx    *Context
	halted bool

	// fetchBuf backs the residual slow fetch path so fetchBytes allocates
	// nothing; 16 bytes covers every codec's MaxLen.
	fetchBuf [16]byte

	// nxFault is the NX fetch fault that starts every migration, handed to
	// the fault handler in place so the trigger allocates nothing. Step
	// copies it only when it escapes as an error.
	nxFault Fault

	instret uint64
	cycles  uint64
	faults  uint64
}

// Register publishes the core's counters into a metrics registry under
// "cpu.<name>.*". Gauge-based: the fetch/execute hot loop keeps its plain
// counters, sampled only at snapshot time.
func (c *Core) Register(m *sim.Metrics) {
	prefix := "cpu." + c.cfg.Name + "."
	m.Gauge(prefix+"instret", func() uint64 { return c.instret })
	m.Gauge(prefix+"cycles", func() uint64 { return c.cycles })
	m.Gauge(prefix+"faults", func() uint64 { return c.faults })
	m.Gauge(prefix+"icache.hits", func() uint64 {
		if c.icache == nil {
			return 0
		}
		return c.icache.hits
	})
	m.Gauge(prefix+"icache.fills", func() uint64 {
		if c.icache == nil {
			return 0
		}
		return c.icache.fills
	})
}

// New builds a core from cfg.
func New(cfg Config) *Core {
	c := &Core{cfg: cfg, codec: isa.MustLookup(cfg.ISA)}
	if cfg.ICacheLines > 0 {
		c.icache = newICache(cfg.ICacheLines)
	}
	if !sim.FastPathsDisabled() {
		c.pd = newSBCache(c.codec)
	}
	return c
}

// Name returns the core's name.
func (c *Core) Name() string { return c.cfg.Name }

// ISA returns the core's instruction set.
func (c *Core) ISA() isa.ISA { return c.cfg.ISA }

// IMMU returns the instruction-side MMU.
func (c *Core) IMMU() *mmu.MMU { return c.cfg.IMMU }

// DMMU returns the data-side MMU.
func (c *Core) DMMU() *mmu.MMU { return c.cfg.DMMU }

// Phys returns the core's view of physical memory.
func (c *Core) Phys() *mem.AddressSpace { return c.cfg.Phys }

// Natives returns the core's native-function table.
func (c *Core) Natives() *NativeTable { return c.cfg.Natives }

// SetContext installs a thread context (a context switch; callers are
// responsible for charging its cost and flushing TLBs via the MMUs).
func (c *Core) SetContext(ctx *Context) { c.ctx = ctx; c.halted = false }

// Context returns the running context.
func (c *Core) Context() *Context { return c.ctx }

// Halted reports whether the current context executed `halt`.
func (c *Core) Halted() bool { return c.halted }

// Stats returns retired-instruction and consumed-cycle counts.
func (c *Core) Stats() (instret, cycles uint64) { return c.instret, c.cycles }

// Faults returns the number of faults the core has taken (handled or not).
func (c *Core) Faults() uint64 { return c.faults }

// SetFaultHandler replaces the fault hook (the Flick runtime installs the
// NxP-side handler after the platform builds the core).
func (c *Core) SetFaultHandler(h FaultHandler) { c.cfg.Fault = h }

// SetSysHandler replaces the syscall hook.
func (c *Core) SetSysHandler(h SysHandler) { c.cfg.Sys = h }

// InvalidateICache drops all cached instruction lines (used by the loader
// after writing code pages) and, with them, the superblock cache.
func (c *Core) InvalidateICache() {
	if c.icache != nil {
		c.icache.flush()
	}
	c.InvalidateSuperblocks()
}

// InvalidateSuperblocks drops every cached superblock. Content changes
// are caught automatically by the code-generation watch; this explicit
// hook exists for the events that deserve a conservative drop regardless
// — I-cache invalidation and TLB shootdown fan-out.
func (c *Core) InvalidateSuperblocks() {
	if c.pd != nil {
		c.pd.flush()
	}
}

// SuperblockStats reports the superblock cache's lifetime hit/fill/flush
// counts (zeros under the reference engine). Test-only visibility:
// deliberately not registered as metrics so the metrics JSON stays
// identical with the cache on or off.
func (c *Core) SuperblockStats() (hits, fills, flushes uint64) {
	if c.pd == nil {
		return 0, 0, 0
	}
	return c.pd.hits, c.pd.fills, c.pd.flushes
}

// ErrHalted is returned by Run/Call when the thread executes `halt`.
var ErrHalted = errors.New("cpu: thread halted")

// execOK applies the core's executable-permission policy.
func (c *Core) execOK(f paging.Flags) bool {
	if c.cfg.ISATag != 0 {
		return f.ISATag == c.cfg.ISATag
	}
	return f.NX == c.cfg.ExecNX
}

// domainGuard keeps run-ahead windows honest: a core running ahead may
// only touch physical memory its own domain owns. Any other address —
// host DRAM, another board's BAR window, MMIO registers — ends the window
// first, so the access is ordered against the rest of the machine exactly
// as it would be on the reference engine. Outside a window this is one
// predicate call at most.
func (c *Core) domainGuard(p *sim.Proc, pa uint64) {
	if p.InWindow() && (c.cfg.DomainLocal == nil || !c.cfg.DomainLocal(pa)) {
		p.Sync()
	}
}

// charge advances virtual time by n core cycles.
func (c *Core) charge(p *sim.Proc, n int) {
	c.cycles += uint64(n)
	p.Sleep(sim.Duration(n) * c.cfg.CycleTime)
}

// fetch translates and checks the PC, returning the physical address.
func (c *Core) fetch(p *sim.Proc) (uint64, *Fault) {
	pc := c.ctx.PC
	if align := uint64(c.codec.Align()); pc%align != 0 {
		return 0, &Fault{Kind: FaultFetchMisaligned, ISA: c.cfg.ISA, VA: pc, PC: pc}
	}
	r, err := c.cfg.IMMU.Translate(p, pc)
	if err != nil {
		var nm *paging.NotMappedError
		if errors.As(err, &nm) {
			return 0, &Fault{Kind: FaultFetchNotMapped, ISA: c.cfg.ISA, VA: pc, PC: pc, Err: err}
		}
		return 0, &Fault{Kind: FaultMachineCheck, ISA: c.cfg.ISA, VA: pc, PC: pc, Err: err}
	}
	if c.cfg.ISATag != 0 {
		if r.Flags.ISATag != c.cfg.ISATag {
			// Another ISA's page, or untagged data: migration trigger.
			return 0, c.fetchNX(pc)
		}
	} else if r.Flags.NX != c.cfg.ExecNX {
		// The other ISA's page (or plain data): Flick's migration trigger.
		return 0, c.fetchNX(pc)
	}
	// Instruction cache: pay the fill cost once per line.
	if c.icache != nil {
		if line, hit := c.icache.lookup(r.Phys); !hit {
			p.Sleep(c.cfg.FetchCost(r.Phys))
			c.icache.fill(line)
		}
	} else if c.cfg.FetchCost != nil {
		p.Sleep(c.cfg.FetchCost(r.Phys))
	}
	return r.Phys, nil
}

// fetchNX fills in the core's NX fetch fault at pc.
func (c *Core) fetchNX(pc uint64) *Fault {
	c.nxFault = Fault{Kind: FaultFetchNX, ISA: c.cfg.ISA, VA: pc, PC: pc}
	return &c.nxFault
}

// fetchBytes reads up to MaxLen instruction bytes at the PC, following the
// translation across a page boundary if the encoding straddles one. The
// returned slice aliases either the backing store directly (contiguous
// RAM/ROM, no copy) or the core's reusable fetch buffer; either way it is
// only valid until the next fetch and allocates nothing.
func (c *Core) fetchBytes(p *sim.Proc, phys uint64) ([]byte, *Fault) {
	// Code reads (and the superblock build + code-watch marking that
	// follow on the cold path) may touch the backing store; inside a
	// run-ahead window they must come from domain-local memory.
	c.domainGuard(p, phys)
	pc := c.ctx.PC
	max := uint64(c.codec.MaxLen())

	pageRemain := paging.PageSize4K - (pc & (paging.PageSize4K - 1))
	first := min(max, pageRemain)
	if first == max {
		// Whole encoding on one page: serve it straight out of the backing
		// store when the range is contiguous materialized RAM/ROM.
		if v, _, ok := c.cfg.Phys.View(phys, max); ok {
			return v, nil
		}
	}
	// Reuse the core's fetch buffer, cleared first so short MMIO reads
	// observe the zeros a fresh allocation would have provided.
	b := c.fetchBuf[:first]
	clear(b)
	if err := c.cfg.Phys.Read(phys, b); err != nil {
		return nil, &Fault{Kind: FaultMachineCheck, ISA: c.cfg.ISA, VA: pc, PC: pc, Err: err}
	}
	buf := c.fetchBuf[:first]
	if first < max {
		// The encoding may continue on the next page; translate it
		// separately (it can map anywhere). A failed translation here is
		// only fatal if the decoder actually needs the extra bytes, so
		// swallow errors and let Decode judge.
		if r, err := c.cfg.IMMU.Translate(p, pc+first); err == nil && c.execOK(r.Flags) {
			rest := c.fetchBuf[first:max]
			clear(rest)
			if err := c.cfg.Phys.Read(r.Phys, rest); err == nil {
				buf = c.fetchBuf[:max]
			}
		}
	}
	return buf, nil
}

// Step executes one instruction of the installed context. A returned error
// is either ErrHalted, a fault the FaultHandler declined to handle, or an
// error from a native function or syscall.
func (c *Core) Step(p *sim.Proc) error {
	if c.ctx == nil {
		return errors.New("cpu: no context installed")
	}
	if c.halted {
		return ErrHalted
	}
	if c.cfg.SpuriousFault != nil && c.cfg.SpuriousFault(p) {
		f := &Fault{Kind: FaultFetchNX, ISA: c.cfg.ISA, VA: c.ctx.PC, PC: c.ctx.PC, Spurious: true}
		c.faults++
		if c.cfg.Fault != nil {
			if err := c.cfg.Fault(p, c, f); err != nil {
				return err
			}
			return nil
		}
		return f
	}
	phys, f := c.fetch(p)
	if f == nil {
		// Superblock fast path: fetch above already charged translation and
		// I-cache costs and re-checked permissions for the block head, so a
		// hit executes the whole cached block (and chains onward) with the
		// per-member fetch work replicated or batched inside blockStep.
		if c.pd != nil {
			if b := c.pd.lookup(phys); b != nil {
				return c.blockStep(p, b)
			}
		}
		var bytes []byte
		bytes, f = c.fetchBytes(p, phys)
		if f == nil {
			ins, n, err := c.codec.Decode(bytes)
			if err != nil {
				f = &Fault{Kind: FaultIllegalInstr, ISA: c.cfg.ISA, VA: c.ctx.PC, PC: c.ctx.PC, Err: err}
			} else {
				if c.pd != nil {
					// Cold path: decode the whole straight-line run headed
					// here and cache it. Ineligible heads (barrier ops,
					// page-straddling windows, MMIO) fall through to the
					// plain interpreter, exactly as before.
					if b := c.buildBlock(phys); b != nil && c.pd.fill(c.cfg.Phys, b) {
						return c.blockStep(p, b)
					}
				}
				return c.execute(p, ins, n)
			}
		}
	}
	p.Sync() // fault handlers reach the kernel and emit trace events
	c.faults++
	if c.cfg.Fault != nil {
		if err := c.cfg.Fault(p, c, f); err != error(f) {
			return err // nil when handled; PC presumably redirected
		}
	}
	if f == &c.nxFault {
		escaped := c.nxFault // the core reuses its own for the next NX fault
		f = &escaped
	}
	return f
}

// Run executes instructions until the context halts, faults fatally, or
// at least maxInstr instructions retire (0 = unbounded). One Step may
// retire a whole chained superblock run, so the bound can overshoot by up
// to the per-Step chain budget; callers use it as a runaway guard, not an
// exact count.
func (c *Core) Run(p *sim.Proc, maxInstr uint64) error {
	start := c.instret
	for maxInstr == 0 || c.instret-start < maxInstr {
		if err := c.Step(p); err != nil {
			return err
		}
		if c.halted {
			return ErrHalted
		}
	}
	return nil
}

// String identifies the core.
func (c *Core) String() string {
	return fmt.Sprintf("%s(%v)", c.cfg.Name, c.cfg.ISA)
}
