// Package mmu models the memory management units that service TLB misses.
// The host cores have a conventional hardware walker over local DRAM; the
// NxP board implements its walker as a tiny microcontroller (the paper uses
// a MicroBlaze) whose walks cross the PCIe link to read the host-resident
// page tables — which is why NxP TLB misses are expensive and why the data
// region uses 1 GB pages.
package mmu

import (
	"errors"

	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// WalkReadCost computes the cost of one 8-byte page-table read at physical
// address pa, as seen by this MMU. The platform binds this to either a
// local-DRAM cost (host) or a PCIe round trip (NxP).
type WalkReadCost func(pa uint64) sim.Duration

// MMU couples a TLB with a page walker and a cost model. One MMU instance
// serves one core's instruction or data port.
type MMU struct {
	Name string
	TLB  *tlb.TLB

	tables   *paging.Tables
	readCost WalkReadCost
	perMiss  sim.Duration // fixed handling overhead per miss (microcode dispatch)

	translates uint64
	walks      uint64
	walkTime   sim.Duration

	// Last-translation fast path: while the TLB's generation is unchanged,
	// a repeat translation on the same 4 KiB frame as the previous one is
	// answered by offsetting the remembered result instead of re-running
	// Lookup. An unchanged generation proves the real Lookup would be a
	// statistics-only MRU hit (see tlb.TLB's gen field), so the counters
	// are kept byte-identical via translates++ and TLB.CountHit. Only
	// Linear results (uniform remap delta, no holes on the frame) are
	// remembered. Disabled by FLICKSIM_NOPREDECODE.
	lastVA  uint64
	lastRes tlb.Result
	lastGen uint64
	lastOK  bool
	noFast  bool
}

// Register publishes the MMU's counters into a metrics registry under
// "mmu.<name>.*". Gauge-based: the translate path keeps its plain
// counters, sampled only at snapshot time.
func (m *MMU) Register(reg *sim.Metrics) {
	prefix := "mmu." + m.Name + "."
	reg.Gauge(prefix+"translates", func() uint64 { return m.translates })
	reg.Gauge(prefix+"walks", func() uint64 { return m.walks })
	reg.Gauge(prefix+"walk_ns", func() uint64 { return uint64(m.walkTime / sim.Nanosecond) })
}

// New creates an MMU. tables may be replaced later via SetTables (the
// kernel switches address spaces by pointing the MMU at another hierarchy,
// the simulated equivalent of loading CR3/PTBR).
func New(name string, t *tlb.TLB, tables *paging.Tables, cost WalkReadCost, perMiss sim.Duration) *MMU {
	return &MMU{Name: name, TLB: t, tables: tables, readCost: cost, perMiss: perMiss,
		noFast: sim.FastPathsDisabled()}
}

// SetTables switches the MMU to a different page-table hierarchy and
// flushes the TLB, modeling a PTBR load during context switch.
func (m *MMU) SetTables(t *paging.Tables) {
	m.tables = t
	m.lastOK = false
	m.TLB.Flush()
}

// Tables returns the active hierarchy.
func (m *MMU) Tables() *paging.Tables { return m.tables }

// ErrNoTables is returned when translating with no address space loaded.
var ErrNoTables = errors.New("mmu: no page tables loaded")

// Translate resolves va, charging virtual time on p for any page walk. TLB
// hits are free here (their single-cycle cost is folded into the core's
// per-access cost). A missing translation surfaces the paging error
// untimed-walk-free; permission checks are the core's job since NX polarity
// differs between host and NxP.
func (m *MMU) Translate(p *sim.Proc, va uint64) (tlb.Result, error) {
	if m.lastOK && va>>12 == m.lastVA>>12 && m.TLB.Gen() == m.lastGen {
		// Same 4 KiB frame as the previous translation and the TLB hasn't
		// mutated since: a real Lookup would be an MRU hit whose only
		// state change is hits++. Replicate the counters and offset the
		// remembered result (valid because only Linear results are
		// remembered). Unsigned subtraction wraps correctly for va below
		// lastVA within the frame.
		m.translates++
		m.TLB.CountHit()
		r := m.lastRes
		r.Phys += va - m.lastVA
		return r, nil
	}
	m.translates++
	if r, ok := m.TLB.Lookup(va); ok {
		m.remember(va, r)
		return r, nil
	}
	if m.tables == nil {
		return tlb.Result{}, ErrNoTables
	}
	if p != nil {
		// The table walk reads shared page tables the kernel mutates
		// (migration remaps, shootdowns); a run-ahead window must end,
		// falling back to sequential ordering, before walking. The call
		// also bars the rest of the compute window from run-ahead, so no
		// window can open after the walk-cost Sleep below, between the
		// walk and the Accessed-bit update.
		p.Sync()
	}
	w, err := m.tables.Walk(va)
	if err != nil {
		// Even a failing walk costs the reads it performed before missing;
		// charge them at the addresses the walker actually touched (the
		// partial trace in w.Reads, one entry per visited level).
		if nm := (*paging.NotMappedError)(nil); errors.As(err, &nm) && p != nil {
			p.Sleep(m.perMiss)
			for _, pa := range w.Reads {
				p.Sleep(m.readCost(pa))
			}
		}
		return tlb.Result{}, err
	}
	cost := m.perMiss
	for _, pa := range w.Reads {
		cost += m.readCost(pa)
	}
	if p != nil {
		p.Sleep(cost)
	}
	// Hardware walkers set the Accessed bit as part of the miss service.
	if err := m.tables.MarkAccessed(w, false); err != nil {
		return tlb.Result{}, err
	}
	m.walks++
	m.walkTime += cost
	r := m.TLB.Insert(va, w)
	m.remember(va, r)
	return r, nil
}

// remember arms the last-translation fast path with r, which translated
// va. Only Linear results qualify; Hit is forced true because a repeat
// translation of the same frame would hit in the TLB.
func (m *MMU) remember(va uint64, r tlb.Result) {
	if m.noFast || !r.Linear {
		return
	}
	r.Hit = true
	m.lastVA, m.lastRes, m.lastGen, m.lastOK = va, r, m.TLB.Gen(), true
}

// RepeatPeek answers va from the last-translation window without any
// metric or state change, reporting whether the window covers it. A true
// result means a real Translate(va) would take the fast path above — same
// 4 KiB frame, TLB generation unchanged — so a caller batching several
// same-page translations may use the returned result for each and settle
// the counters once via CountRepeatHit/CountRepeatHits. The superblock
// executor is that caller; it must account one repeat hit per fetch it
// actually performs, or metrics diverge from the per-instruction path.
func (m *MMU) RepeatPeek(va uint64) (tlb.Result, bool) {
	if m.lastOK && va>>12 == m.lastVA>>12 && m.TLB.Gen() == m.lastGen {
		r := m.lastRes
		r.Phys += va - m.lastVA
		return r, true
	}
	return tlb.Result{}, false
}

// CountRepeatHit settles the counters for one translation answered via
// RepeatPeek, exactly as the Translate fast path would have.
func (m *MMU) CountRepeatHit() {
	m.translates++
	m.TLB.CountHit()
}

// CountRepeatHits settles the counters for n translations answered via
// RepeatPeek in one batch update.
func (m *MMU) CountRepeatHits(n int) {
	m.translates += uint64(n)
	m.TLB.CountHits(n)
}

// Probe translates va without charging time or touching statistics or
// cached state, for debugger-style inspection. Unlike Translate it leaves
// the TLB's LRU order, hit/miss counters, and contents untouched, so
// probing never perturbs the metrics invariants.
func (m *MMU) Probe(va uint64) (tlb.Result, error) {
	if r, ok := m.TLB.Peek(va); ok {
		return r, nil
	}
	if m.tables == nil {
		return tlb.Result{}, ErrNoTables
	}
	w, err := m.tables.Walk(va)
	if err != nil {
		return tlb.Result{}, err
	}
	return m.TLB.ResultFor(va, w), nil
}

// Stats reports the number of completed walks and their total cost.
func (m *MMU) Stats() (walks uint64, walkTime sim.Duration) {
	return m.walks, m.walkTime
}
