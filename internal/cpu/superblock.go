package cpu

import (
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/paging"
	"flick/internal/sim"
)

// The superblock cache is the successor of the PR 5 per-instruction
// predecode cache: instead of one decoded instruction per entry it caches
// decoded *basic blocks* — straight-line runs of instructions ending at a
// control transfer — as arrays of pre-resolved handler function pointers
// (see opTable in exec.go) with aggregated cycle counts, so the steady
// state executes a whole block with one cache lookup, one translation
// check, and one cost-accounting update, and chains from a taken branch
// straight into the already-decoded target block.
//
// Everything here is wall-clock-only: virtual time, metrics, and traces
// must stay byte-identical to FLICKSIM_NOPREDECODE=1 (which disables the
// cache entirely at Core construction). The mechanisms that guarantee
// that are spelled out at each site; the load-bearing ones are:
//
//   - blocks never span a 4 KiB page (the builder stops as soon as an
//     instruction's MaxLen window could cross the page end, bounding the
//     check on *physical* offsets — equivalent to virtual offsets under
//     4 KiB translation, and robust if that ever changes);
//   - blocks never contain MMIO-backed bytes (the builder reads through
//     mem.AddressSpace.View, which refuses device memory, and fill
//     requires WatchCode, which refuses it again);
//   - blocks never contain instructions that leave the interpreter
//     (isa.StepBarrier: native, sys, invalid);
//   - invalidation is content-based via mem.Sparse.WatchCode/CodeGen
//     exactly as before, plus the explicit InvalidateICache/shootdown
//     drops, and freshness is re-validated between block instructions
//     whenever anything could have intervened.

const (
	// sbEntries sizes the direct-mapped block cache. 2048 block slots
	// cover more code than the 4096 single-instruction slots they replace
	// (a block averages several instructions) while keeping a full flush
	// a sub-microsecond clear.
	sbEntries = 2048

	// sbMaxInstrs caps a block's length so one cache entry stays small
	// and the budget check below stays meaningful.
	sbMaxInstrs = 32

	// sbChainBudget bounds how many instructions one Step may retire
	// through block chaining, so a hot loop cannot spin forever inside a
	// single Step call (Run, Call, and the kernel's preemption points all
	// observe state between Steps).
	sbChainBudget = 256
)

// sbIns is one member instruction of a superblock: its pre-resolved
// handler, decoded form, encoded length, cycle price, and class.
type sbIns struct {
	fn    opFn
	ins   isa.Instr
	n     uint8
	cyc   uint16
	class isa.StepClass
}

// superblock is one decoded straight-line run, tagged by the physical
// address of its first byte. All members lie on one 4 KiB page.
type superblock struct {
	pa     uint64
	ins    []sbIns
	bytes  uint64       // total encoded length
	cycles uint64       // sum of member cycle prices
	cost   sim.Duration // cycles * CycleTime, the merged charge
	pure   bool         // no member may fault or touch data memory

	// lines are the distinct I-cache line bases the block's bytes cover;
	// icGen/icOK memoize "all lines resident" against the icache's
	// mutation generation so steady-state revalidation is O(1).
	lines []uint64
	icGen uint64
	icOK  bool
}

// pdSrc snapshots the code generation of one backing store the cache
// decoded from. Every write path into a Sparse store (bus, DMA, loader
// backdoor) bumps its generation when it touches a watched code frame, so
// comparing generations proves no cached byte changed.
type pdSrc struct {
	store *mem.Sparse
	gen   uint64
}

// sbCache is the per-core, physically-tagged, direct-mapped block cache.
// The Core field keeping the historical name pd, and the hit/fill/flush
// counters keeping their SuperblockStats meaning, is deliberate: the
// invalidation contract (and its test suite) carries over unchanged.
type sbCache struct {
	entries [sbEntries]*superblock
	shift   uint // log2 of the codec's instruction alignment
	srcs    []pdSrc

	hits, fills, flushes uint64
}

// log2 of a power-of-two alignment (1, 2, 4, 8 in the shipped codecs).
func alignShift(align int) uint {
	s := uint(0)
	for 1<<(s+1) <= align {
		s++
	}
	return s
}

func newSBCache(codec isa.Codec) *sbCache {
	return &sbCache{shift: alignShift(codec.Align())}
}

// index maps a block head's physical address to its slot. Dividing out
// the alignment first spreads 2-byte-aligned cmp code across all slots
// instead of wasting half of them; distinct heads that still collide
// (4 KiB apart per alignment step) are disambiguated by the pa tag.
func (d *sbCache) index(pa uint64) uint64 {
	return (pa >> d.shift) & (sbEntries - 1)
}

// fresh reports whether every watched backing store still has the code
// generation it had when the cache decoded from it. It never mutates —
// the block executor polls it between instructions.
func (d *sbCache) fresh() bool {
	for i := range d.srcs {
		if d.srcs[i].store.CodeGen() != d.srcs[i].gen {
			return false
		}
	}
	return true
}

// lookup returns the cached block headed at physical address pa, after
// revalidating every backing store's code generation. Any generation
// mismatch flushes the whole cache — stale decode after a code write is
// the one failure mode this cache must never exhibit, and code writes are
// rare enough that over-invalidation is free.
func (d *sbCache) lookup(pa uint64) *superblock {
	if !d.fresh() {
		d.flush()
		return nil
	}
	b := d.entries[d.index(pa)]
	if b == nil || b.pa != pa {
		return nil
	}
	d.hits++
	return b
}

// fill caches a freshly built block and arms write-watching on the byte
// range it decoded from. MMIO-backed ranges are refused by WatchCode and
// never cached.
func (d *sbCache) fill(as *mem.AddressSpace, b *superblock) bool {
	st, ok := as.WatchCode(b.pa, b.bytes)
	if !ok {
		return false
	}
	d.addSrc(st)
	d.entries[d.index(b.pa)] = b
	d.fills++
	return true
}

// addSrc registers a backing store, snapshotting its current generation.
// The list stays tiny (one store backs all of a core's code in every
// shipped platform), so a linear scan beats a map here.
func (d *sbCache) addSrc(st *mem.Sparse) {
	for i := range d.srcs {
		if d.srcs[i].store == st {
			return
		}
	}
	d.srcs = append(d.srcs, pdSrc{store: st, gen: st.CodeGen()})
}

// flush drops every block and forgets the watched stores (fills re-add
// them with fresh generation snapshots).
func (d *sbCache) flush() {
	clear(d.entries[:])
	d.srcs = d.srcs[:0]
	d.flushes++
}

// buildBlock decodes the straight-line run headed at physical address pa
// into a superblock, or returns nil when not even the head instruction is
// block-eligible. This is the cold path — it runs once per (head, flush)
// and may allocate.
func (c *Core) buildBlock(pa uint64) *superblock {
	maxLen := uint64(c.codec.MaxLen())
	align := uint64(c.codec.Align())
	var members []sbIns
	var off, cycles uint64
	pure := true
	for len(members) < sbMaxInstrs {
		ipa := pa + off
		// Stop before any instruction whose MaxLen decode window could
		// cross the page end: the slow path would issue a second,
		// metric-visible straddle Translate there, so such instructions
		// must keep taking the slow path. The bound is on the physical
		// offset — the cache is physically tagged, and under the 4 KiB
		// translation this model guarantees, pa and pc share their low 12
		// bits, so this is also exactly the virtual-page bound fetchBytes
		// applies.
		if ipa&(paging.PageSize4K-1)+maxLen > paging.PageSize4K {
			break
		}
		// View refuses MMIO and unmaterialized memory, so building never
		// triggers device side effects; anything it refuses simply stays
		// on the slow path.
		buf, _, ok := c.cfg.Phys.View(ipa, maxLen)
		if !ok {
			break
		}
		ins, n, err := c.codec.Decode(buf)
		if err != nil {
			break
		}
		class := c.codec.StepClass(ins, n)
		if class == isa.StepBarrier {
			break
		}
		// Defensive: a handler-less op or an encoding that would misalign
		// the next member can't be executed from a block.
		if int(ins.Op) >= isa.NumOps || opTable[ins.Op] == nil || uint64(n)%align != 0 {
			break
		}
		if class == isa.StepFaulty || class == isa.StepMemory {
			pure = false
		}
		cyc := c.codec.StepCycles(ins, n)
		members = append(members, sbIns{
			fn: opTable[ins.Op], ins: ins, n: uint8(n), cyc: uint16(cyc), class: class,
		})
		cycles += uint64(cyc)
		off += uint64(n)
		if class == isa.StepBoundary {
			break
		}
	}
	if len(members) == 0 {
		return nil
	}
	b := &superblock{
		pa:     pa,
		ins:    members,
		bytes:  off,
		cycles: cycles,
		cost:   sim.Duration(cycles) * c.cfg.CycleTime,
		pure:   pure,
	}
	for ln := pa &^ (icacheLineSize - 1); ln < pa+off; ln += icacheLineSize {
		b.lines = append(b.lines, ln)
	}
	return b
}

// linesResident reports whether every I-cache line the block covers is
// resident, memoizing the answer against the icache generation. Without
// an icache, residency means "fetches are free" (no FetchCost).
func (c *Core) linesResident(b *superblock) bool {
	ic := c.icache
	if ic == nil {
		return c.cfg.FetchCost == nil
	}
	if b.icOK && b.icGen == ic.gen {
		return true
	}
	for _, ln := range b.lines {
		if !ic.resident(ln) {
			b.icOK = false
			return false
		}
	}
	b.icOK, b.icGen = true, ic.gen
	return true
}

// blockStep executes block b — whose head instruction Step has already
// fully fetched (translated, permission-checked, I-cache charged) — and
// then chains into successor blocks while the budget lasts.
func (c *Core) blockStep(p *sim.Proc, b *superblock) error {
	budget := sbChainBudget
	entryFetched := true
	for {
		nb, cont, err := c.execBlock(p, b, &budget, entryFetched)
		if err != nil || !cont {
			return err
		}
		b = nb
		entryFetched = false
	}
}

// execBlock runs one block. entryFetched says the head's fetch phase was
// already performed (by Step's real fetch); for chained blocks the
// executor replicates it. It returns the next block to chain into, or
// cont=false when this Step is done (the next instruction, if any, goes
// through the normal Step path).
//
// Two modes:
//
// Aggregate: when the block is pure (no member can fault, sleep on data,
// or consume fault-injection randomness), the translation window covers
// the page, every I-cache line is resident, and the merged sleep takes
// the in-place fast path, the whole block costs one cost-accounting
// update. The merged sleep is the linchpin: TrySleepInPlace succeeding
// for the total proves each constituent per-instruction sleep would also
// have advanced in place (any intermediate time is ≤ the final time), so
// no other process could have observed or interleaved the difference —
// and because nothing parks, nothing else runs, so the batched counter
// updates are indistinguishable from per-instruction ones (gauges are
// only sampled at snapshot time).
//
// Incremental: otherwise, each member replicates the per-instruction
// Step prologue exactly — spurious-fault poll, translation-window
// accounting, I-cache lookup/fill — bailing out cleanly (before the
// poll, which consumes PRNG state) whenever a precondition no longer
// holds, so the next Step re-enters the ordinary path with nothing
// consumed and nothing skipped.
func (c *Core) execBlock(p *sim.Proc, b *superblock, budget *int, entryFetched bool) (*superblock, bool, error) {
	ctx := c.ctx
	env := p.Env()
	immu := c.cfg.IMMU
	k := len(b.ins)

	if b.pure && c.cfg.SpuriousFault == nil && *budget >= k {
		if _, ok := immu.RepeatPeek(ctx.PC); ok && c.linesResident(b) && p.TrySleepInPlace(b.cost) {
			// Committed: time has advanced by the whole block. Settle the
			// fetch-side counters for every member whose fetch Step didn't
			// already perform, then the execute-side ones, then run the
			// handlers back to back.
			repl := k
			if entryFetched {
				repl--
			}
			immu.CountRepeatHits(repl)
			if c.icache != nil {
				c.icache.countHits(uint64(repl))
			}
			c.cycles += b.cycles
			c.instret += uint64(k)
			*budget -= k
			for i := range b.ins {
				m := &b.ins[i]
				if err := m.fn(c, p, m.ins, ctx.PC+uint64(m.n)); err != nil {
					return nil, false, err
				}
				if c.halted {
					return nil, false, nil
				}
			}
			return c.chain(budget)
		}
	}

	// seq is the interleaving sentinel: unchanged means no other process
	// ran and nothing was enqueued since the snapshot, so every cached
	// precondition (translation window, code freshness, permissions)
	// still holds by construction.
	seq := env.SchedSeq()
	var off uint64
	for i := range b.ins {
		m := &b.ins[i]
		pc := ctx.PC
		if i > 0 || !entryFetched {
			// Pure prechecks first — anything that fails here aborts with
			// no observable state consumed.
			if *budget <= 0 || env.SchedSeq() != seq {
				return nil, false, nil
			}
			if _, ok := immu.RepeatPeek(pc); !ok {
				return nil, false, nil
			}
			if !c.pd.fresh() {
				return nil, false, nil
			}
			// Commit point: the spurious-fault poll consumes PRNG state,
			// so from here this member must run (or spuriously fault)
			// exactly once, mirroring Step's prologue.
			if c.cfg.SpuriousFault != nil && c.cfg.SpuriousFault(p) {
				f := &Fault{Kind: FaultFetchNX, ISA: c.cfg.ISA, VA: pc, PC: pc, Spurious: true}
				c.faults++
				if c.cfg.Fault != nil {
					if err := c.cfg.Fault(p, c, f); err != nil {
						return nil, false, err
					}
					return nil, false, nil
				}
				return nil, false, f
			}
			// Fetch phase, replicated: the translation is answered by the
			// window RepeatPeek just validated (counted identically to the
			// Translate fast path), the I-cache is driven for real.
			immu.CountRepeatHit()
			ipa := b.pa + off
			if c.icache != nil {
				if line, hit := c.icache.lookup(ipa); !hit {
					p.Sleep(c.cfg.FetchCost(ipa))
					c.icache.fill(line)
				}
			} else if c.cfg.FetchCost != nil {
				p.Sleep(c.cfg.FetchCost(ipa))
			}
			if env.SchedSeq() != seq {
				// The fill slept through the queue: another process may
				// have run. Re-validate the one thing that matters for the
				// already-decoded member — code freshness; if it fails,
				// finish this instruction through a fresh decode (its
				// fetch phase is fully charged) and abandon the block.
				seq = env.SchedSeq()
				if !c.pd.fresh() {
					c.pd.flush()
					return nil, false, c.stepDecoded(p, ipa)
				}
			}
		}
		// Execute phase, identical to execute() with the backend's
		// StepCycles pre-folded into m.cyc.
		c.cycles += uint64(m.cyc)
		p.Sleep(sim.Duration(m.cyc) * c.cfg.CycleTime)
		c.instret++
		*budget--
		if err := m.fn(c, p, m.ins, pc+uint64(m.n)); err != nil {
			return nil, false, err
		}
		if c.halted {
			return nil, false, nil
		}
		if i < k-1 && ctx.PC != pc+uint64(m.n) {
			// Control left the straight line mid-block: a handled fault
			// redirected the PC (Flick's migration hijack) or held it for
			// re-execution. Either way the next instruction must go
			// through the ordinary Step path.
			return nil, false, nil
		}
		off += uint64(m.n)
		if p.Env().SchedSeq() != seq {
			// A data access or fault handler slept through the queue; the
			// cheap invariants are gone, so resync for the next member's
			// prechecks rather than carrying a stale snapshot.
			seq = p.Env().SchedSeq()
		}
	}
	return c.chain(budget)
}

// chain resolves the next block after a terminal control transfer (or a
// fall-through off a capped block). Every condition a real fetch would
// check is re-checked here against live state — alignment, same-page
// translation, execute permission, cached decode — and any miss simply
// ends the Step: faults are never raised at chain time, the ordinary
// fetch path raises the real ones next Step.
func (c *Core) chain(budget *int) (*superblock, bool, error) {
	if *budget <= 0 {
		return nil, false, nil
	}
	pc := c.ctx.PC
	if align := uint64(c.codec.Align()); pc%align != 0 {
		return nil, false, nil
	}
	r, ok := c.cfg.IMMU.RepeatPeek(pc)
	if !ok || !c.execOK(r.Flags) {
		return nil, false, nil
	}
	nb := c.pd.lookup(r.Phys)
	if nb == nil {
		return nil, false, nil
	}
	return nb, true, nil
}

// stepDecoded finishes one instruction whose fetch phase (translation,
// permissions, I-cache) is fully charged but whose cached decode went
// stale: re-read the bytes, decode fresh, execute, delivering faults
// exactly as Step's tail does.
func (c *Core) stepDecoded(p *sim.Proc, phys uint64) error {
	bytes, f := c.fetchBytes(p, phys)
	if f == nil {
		ins, n, err := c.codec.Decode(bytes)
		if err != nil {
			f = &Fault{Kind: FaultIllegalInstr, ISA: c.cfg.ISA, VA: c.ctx.PC, PC: c.ctx.PC, Err: err}
		} else {
			return c.execute(p, ins, n)
		}
	}
	p.Sync() // fault handlers reach the kernel and emit trace events
	c.faults++
	if c.cfg.Fault != nil {
		if err := c.cfg.Fault(p, c, f); err != nil {
			return err
		}
		return nil
	}
	return f
}
