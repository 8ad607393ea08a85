package core

import (
	"fmt"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/pcie"
	"flick/internal/platform"
	"flick/internal/sim"
)

// Mailbox geometry. Rings live in the low BRAM carve-out; each direction
// has 16 descriptor slots. One staging buffer per direction sits on the
// sending side's local memory so descriptors cross the link exactly once,
// in one DMA burst.
const (
	mailboxSlots  = 16
	h2nRingOff    = 0    // BRAM offset of host→NxP ring
	n2hStagingOff = 4096 // BRAM offset of NxP→host staging slots
)

// Mailbox register file offsets (the board's BAR-exposed control block).
const (
	regH2NCount    = 0x00 // RO: completed host→NxP descriptor transfers
	regN2HDoorbell = 0x08 // WO: slot index; triggers BRAM→host DMA + MSI
	regH2NDoorbell = 0x10 // WO: slot index; triggers host→BRAM DMA
)

// wakeFn is called at N2H descriptor arrival to raise the MSI.
type wakeFn func(pid int)

// failFn is called when a descriptor transfer is abandoned after
// exhausting its DMA retry budget; pid owns the undeliverable descriptor.
type failFn func(pid uint32, err error)

// Descriptor-DMA retry policy: a failed burst is resubmitted after an
// exponentially growing virtual-time backoff. The whole budget (~1.3 ms)
// sits inside the kernel's migration-timeout window, so transport-level
// failures surface as task errors before the kernel declares a timeout.
const (
	dmaMaxAttempts  = 8
	dmaRetryBackoff = 5 * sim.Microsecond
)

// routeFn resolves a call target to the board ISA whose scheduler should
// serve it (false for non-text targets).
type routeFn func(target uint64) (isa.ISA, bool)

// TransportError is the typed failure for a descriptor abandoned by the
// DMA retry machinery. Dir tells the failover logic whether the call ever
// dispatched: an "h2n" loss means the board never saw the descriptor and
// the migration may be retried on another board; an "n2h" loss means the
// call already executed and its return is gone — never re-dispatch.
type TransportError struct {
	Dir   string // "h2n" or "n2h"
	Board int
	Slot  int
	Err   error
}

func (e *TransportError) Error() string { return e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// Mailbox is the descriptor transport: the DMA engine's register file
// (exposed to both sides), the BRAM rings, and the host-side staging and
// arrival buffers. It also performs descriptor routing on the NxP side:
// descriptors for a thread blocked in the NxP migration handler go to that
// waiter; fresh calls queue for the NxP scheduler.
type Mailbox struct {
	env  *sim.Env
	dma  *pcie.Engine
	host *mem.AddressSpace // host physical view (DMA operates here)

	regs *mem.Region // MMIO register file

	boardIdx int    // owning board's index
	comp     string // event component name ("mbox", "mbox1", ...)

	bramHostBase uint64 // BRAM ring base in the host view (BAR)
	bramLocal    uint64 // BRAM ring base in the board-local view
	regsLocal    uint64 // register file base in the board-local view
	hostStaging  uint64 // host-DRAM staging for outbound H2N descriptors
	hostArrival  uint64 // host-DRAM arrival buffer for N2H descriptors

	h2nCount uint64 // the DMA status register the NxP scheduler polls
	h2nCur   int
	n2hCur   int
	// busyH2N guards against ring overrun: a slot must be consumed before
	// the cursor laps it (at most mailboxSlots threads mid-migration).
	busyH2N [mailboxSlots]bool
	// n2hBusy marks N2H staging slots whose descriptor has not yet landed
	// in the host arrival buffer. Together with busyH2N it lets PendingFor
	// see descriptors that are mid-DMA (multi-board platforms only — see
	// scanInflight), so a migration timeout can never race a still-in-
	// flight descriptor into a double dispatch.
	n2hBusy [mailboxSlots]bool
	// n2hHeld marks arrival slots whose descriptor the host has not yet
	// taken (TakeN2H). A task whose MSI was lost takes its descriptor only
	// at the kernel's timeout probe; restaging the slot before then would
	// hand it another call's descriptor. Staging skips busy and held slots,
	// and a sender that finds all of them owned waits on n2hFree.
	n2hHeld [mailboxSlots]bool
	n2hFree *sim.Cond
	// scanInflight extends PendingFor to the in-flight slots above. Set
	// only on multi-board platforms: single-board probes keep their
	// historical answers bit-for-bit.
	scanInflight bool

	// h2nDMA and n2hDMA are each ring slot's descriptor transfer, its
	// callbacks built once so a migration allocates nothing for them.
	h2nDMA, n2hDMA [mailboxSlots]dmaSlot

	// seqCtr stamps every staged descriptor with a nonzero sequence
	// number; h2nSeq/n2hSeq remember the last sequence consumed per slot
	// so a replayed DMA burst (injected dma.dup) is dropped on arrival.
	seqCtr uint32
	h2nSeq [mailboxSlots]uint32
	n2hSeq [mailboxSlots]uint32

	// fail reports a descriptor abandoned after the DMA retry budget.
	fail failFn

	// descBuf is the scratch buffer for untimed descriptor peeks. All
	// mailbox routing runs under the sequential engine (run-ahead windows end
	// before touching shared state), and every user fills and consumes it
	// without an intervening yield, so one buffer per mailbox keeps these
	// hot paths allocation-free.
	descBuf [DescSize]byte

	// Board-side routing: one scheduler queue per board ISA.
	schedQ  map[isa.ISA][]int
	schedC  map[isa.ISA]*sim.Cond
	route   routeFn
	waiters map[waiterKey]*mboxWaiter
	// idle holds waiters WaitH2N released, for RegisterWaiter to reuse.
	idle []*mboxWaiter

	// Host-side arrival notes: pid → arrival slot.
	n2hPending map[uint32]int
	wake       wakeFn

	// pio disables the DMA engine: descriptors are moved by programmed
	// I/O (the ablation of the paper's single-burst design). Outbound
	// staging writes then target the far side directly and the reader
	// pays cross-link reads.
	pio bool

	// stats
	h2nSent, n2hSent int

	// Transport-recovery counters, registered only under fault injection
	// (nil-safe otherwise) so baseline snapshots carry no new keys.
	mDMARetries *sim.Counter
	mDupDrops   *sim.Counter
}

// waiterKey identifies a blocked migration-handler frame: which thread,
// and on which board core it sits.
type waiterKey struct {
	pid uint32
	is  isa.ISA
}

type mboxWaiter struct {
	slot int
	has  bool
	cond *sim.Cond
}

// dmaSlot is one ring slot's descriptor transfer. kick starts it (the H2N
// ring's deferred migration trigger; the N2H ring starts from its
// doorbell), done receives the engine's completion, and attempt counts
// the failed bursts of the transfer in flight, for the retry budget.
type dmaSlot struct {
	kick    func()
	done    func(at sim.Time, ok bool)
	attempt int
}

// newMailbox wires one board's transport onto a machine. hostStaging/
// hostArrival are host-DRAM physical addresses (one page each) supplied by
// the caller. Board 0 keeps the bare historical names ("mbox", "flick-regs",
// "mailbox.sched.*"); later boards append their index.
func newMailbox(m *platform.Machine, b *platform.Board, hostStaging, hostArrival uint64, wake wakeFn, route routeFn, fail failFn) (*Mailbox, error) {
	sfx := ""
	if b.Index > 0 {
		sfx = fmt.Sprintf("%d", b.Index)
	}
	mb := &Mailbox{
		env:          m.Env,
		dma:          b.DMA,
		host:         m.HostView,
		boardIdx:     b.Index,
		comp:         "mbox" + sfx,
		bramHostBase: b.BRAMBar.HostBase,
		bramLocal:    b.LocalBRAM,
		regsLocal:    b.LocalRegs,
		hostStaging:  hostStaging,
		hostArrival:  hostArrival,
		scanInflight: len(m.Boards) > 1,
		waiters:      make(map[waiterKey]*mboxWaiter),
		n2hPending:   make(map[uint32]int),
		wake:         wake,
		route:        route,
		fail:         fail,
		schedQ:       make(map[isa.ISA][]int),
		schedC:       make(map[isa.ISA]*sim.Cond),
	}
	if m.Injector != nil {
		reg := m.Env.Metrics()
		mb.mDMARetries = reg.Counter("migration.dma_retries")
		mb.mDupDrops = reg.Counter("migration.dup_drops")
	}
	for _, be := range isa.All() {
		if be.Host() {
			continue
		}
		mb.schedC[be.ISA()] = m.Env.NewCond("mailbox" + sfx + ".sched." + be.Name())
	}
	mb.n2hFree = m.Env.NewCond("mailbox" + sfx + ".n2h-free")
	for slot := range mailboxSlots {
		h2n, n2h := &mb.h2nDMA[slot], &mb.n2hDMA[slot]
		h2n.kick = func() { mb.kickH2N(slot) }
		h2n.done = func(_ sim.Time, ok bool) {
			if ok {
				mb.h2nArrived(slot)
				return
			}
			mb.retryDMA("h2n", "h2n-desc", slot, h2n, mb.hostStaging+uint64(slot)*DescSize, mb.submitH2N)
		}
		n2h.done = func(_ sim.Time, ok bool) {
			if ok {
				mb.n2hArrived(slot)
				return
			}
			mb.retryDMA("n2h", "n2h-desc", slot, n2h, mb.bramHostBase+n2hStagingOff+uint64(slot)*DescSize, mb.submitN2H)
		}
	}
	mb.regs = mem.NewMMIO("flick-regs"+sfx, 4096, (*mailboxRegs)(nil).bind(mb))
	if _, err := m.ExposeNxPDevice(mb.regs, b.LocalRegs); err != nil {
		return nil, err
	}
	return mb, nil
}

// Board returns the index of the board this mailbox belongs to.
func (mb *Mailbox) Board() int { return mb.boardIdx }

// mailboxRegs adapts the Mailbox to the MMIO device interface.
type mailboxRegs struct{ mb *Mailbox }

func (*mailboxRegs) bind(mb *Mailbox) *mailboxRegs { return &mailboxRegs{mb: mb} }

// MMIORead implements mem.Device: the status register.
func (r *mailboxRegs) MMIORead(off uint64, buf []byte) error {
	var v uint64
	switch off {
	case regH2NCount:
		v = r.mb.h2nCount
	default:
		v = 0
	}
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return nil
}

// MMIOWrite implements mem.Device: the doorbells.
func (r *mailboxRegs) MMIOWrite(off uint64, buf []byte) error {
	var v uint64
	for i := range buf {
		v |= uint64(buf[i]) << (8 * i)
	}
	switch off {
	case regN2HDoorbell:
		r.mb.kickN2H(int(v))
	case regH2NDoorbell:
		r.mb.kickH2N(int(v))
	default:
		return fmt.Errorf("core: write to unknown mailbox register %#x", off)
	}
	return nil
}

// --- Host → NxP direction ------------------------------------------------

// nextSeq returns the next descriptor sequence number (never zero — zero
// marks unsequenced descriptors and is exempt from dedupe).
func (mb *Mailbox) nextSeq() uint32 {
	mb.seqCtr++
	if mb.seqCtr == 0 {
		mb.seqCtr = 1
	}
	return mb.seqCtr
}

// StageH2NSlot returns the host-DRAM physical address of the next outbound
// staging slot, its index, and the sequence number to stamp into the
// descriptor (Descriptor.Seq) before writing it there. The host migration
// handler writes the descriptor before the ioctl.
func (mb *Mailbox) StageH2NSlot() (pa uint64, slot int, seq uint32) {
	slot = mb.h2nCur % mailboxSlots
	mb.h2nCur++
	if mb.busyH2N[slot] {
		panic(fmt.Sprintf("core: H2N mailbox ring overrun at slot %d (more than %d threads mid-migration)", slot, mailboxSlots))
	}
	mb.busyH2N[slot] = true
	return mb.hostStaging + uint64(slot)*DescSize, slot, mb.nextSeq()
}

// kickH2N starts the single-burst DMA of a staged descriptor into the
// BRAM ring (triggered via the H2N doorbell by the kernel scheduler hook,
// after the thread is suspended). In PIO mode there is no transfer: the
// descriptor stays in host DRAM and the NxP will read it across the link.
func (mb *Mailbox) kickH2N(slot int) {
	mb.h2nSent++
	if mb.pio {
		mb.h2nArrived(slot)
		return
	}
	mb.h2nDMA[slot].attempt = 0
	mb.submitH2N(slot)
}

func (mb *Mailbox) submitH2N(slot int) {
	mb.dma.Submit(pcie.Request{
		SrcSpace: mb.host, Src: mb.hostStaging + uint64(slot)*DescSize,
		DstSpace: mb.host, Dst: mb.bramHostBase + h2nRingOff + uint64(slot)*DescSize,
		Size: DescSize, Tag: "h2n-desc",
		OnDone: mb.h2nDMA[slot].done,
	})
}

// retryDMA handles a failed descriptor burst: resubmit after a backoff, or
// — once the budget is gone — peek the staged descriptor (still intact at
// descPA; a failed burst writes nothing), release the slot, and report the
// owning task with a typed TransportError so the failover logic can tell a
// never-dispatched call (h2n loss) from an already-executed one (n2h loss).
// The slot stays owned while a retry is pending, so nothing restages it
// and its attempt count belongs to this transfer alone.
func (mb *Mailbox) retryDMA(dir, tag string, slot int, st *dmaSlot, descPA uint64, resubmit func(slot int)) {
	if attempt := st.attempt; attempt+1 < dmaMaxAttempts {
		mb.mDMARetries.Inc()
		backoff := dmaRetryBackoff << uint(attempt)
		st.attempt++
		mb.env.Emit(sim.Event{Comp: mb.comp, Kind: sim.KindMailbox, Aux: uint64(slot), Note: tag + " retry"})
		// The backoff is armed from a zero-delay timer, not from here, so
		// that it takes its turn after the events already queued for now.
		mb.env.AfterFunc(0, func() {
			mb.env.AfterFunc(backoff, func() { resubmit(slot) })
		})
		return
	}
	mb.env.Emit(sim.Event{Comp: mb.comp, Kind: sim.KindMailbox, Aux: uint64(slot), Note: tag + " abandoned"})
	// The descriptor is dead: release its slot so the ring survives the
	// loss (and, on multi-board platforms, so PendingFor stops reporting
	// the migration alive — the timeout/failover path depends on it).
	switch dir {
	case "h2n":
		mb.busyH2N[slot] = false
	case "n2h":
		mb.n2hBusy[slot] = false
		mb.n2hFree.Signal()
	}
	if mb.fail == nil {
		return
	}
	if err := mb.host.Read(descPA, mb.descBuf[:]); err != nil {
		return
	}
	d, err := DecodeDescriptor(mb.descBuf[:])
	if err != nil {
		return
	}
	mb.fail(d.PID, &TransportError{
		Dir:   dir,
		Board: mb.boardIdx,
		Slot:  slot,
		Err:   fmt.Errorf("core: %s DMA for slot %d failed after %d attempts", tag, slot, dmaMaxAttempts),
	})
}

// h2nArrived routes a delivered host→NxP descriptor: returns and nested
// calls go to the waiting migration-handler frame; fresh calls queue for
// the scheduler.
func (mb *Mailbox) h2nArrived(slot int) {
	d := mb.peekH2N(slot)
	if d.Seq != 0 && d.Seq == mb.h2nSeq[slot] {
		// Replayed burst (injected dma.dup): this slot's descriptor was
		// already consumed — idempotent drop.
		mb.mDupDrops.Inc()
		mb.env.Emit(sim.Event{Comp: mb.comp, Kind: sim.KindMailbox, Aux: uint64(slot), Note: "duplicate h2n delivery dropped"})
		return
	}
	mb.h2nSeq[slot] = d.Seq
	mb.h2nCount++
	mb.busyH2N[slot] = false
	if d.Kind == DescReturn {
		// Returns go to the frame that asked: the waiter on the board
		// core named by the reply-to field.
		if w, ok := mb.waiters[waiterKey{pid: d.PID, is: isa.ISA(d.ReplyISA)}]; ok {
			w.slot = slot
			w.has = true
			w.cond.Signal()
			return
		}
		mb.env.Emit(sim.Event{Comp: mb.comp, Kind: sim.KindMailbox, Aux: uint64(d.PID), Note: "orphan return descriptor"})
		return
	}
	// Calls go to the core that can execute the target: a blocked frame
	// of this thread on that core continues there; otherwise the core's
	// scheduler dispatches a fresh frame.
	target, ok := mb.route(d.Target)
	if !ok || isa.IsHost(target) {
		mb.env.Emit(sim.Event{Comp: mb.comp, Kind: sim.KindMailbox, Addr: d.Target, Aux: uint64(d.PID), Note: "unroutable call target"})
		return
	}
	if w, ok := mb.waiters[waiterKey{pid: d.PID, is: target}]; ok {
		w.slot = slot
		w.has = true
		w.cond.Signal()
		return
	}
	mb.schedQ[target] = append(mb.schedQ[target], slot)
	mb.schedC[target].Signal()
}

// peekH2N decodes a ring slot without timing (simulator-side routing; the
// timed reads are performed by the NxP code that consumes the slot).
func (mb *Mailbox) peekH2N(slot int) Descriptor {
	if err := mb.host.Read(mb.h2nSlotHostPA(slot), mb.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: mailbox peek: %v", err))
	}
	d, err := DecodeDescriptor(mb.descBuf[:])
	if err != nil {
		panic(fmt.Sprintf("core: mailbox peek: %v", err))
	}
	return d
}

// H2NRingLocal returns the physical address (in the NxP's view) at which
// the NxP reads a delivered H2N descriptor: the local BRAM ring normally,
// or the host staging buffer in PIO mode (host DRAM is identity-visible
// from the NxP).
func (mb *Mailbox) H2NRingLocal(slot int) uint64 {
	if mb.pio {
		return mb.hostStaging + uint64(slot)*DescSize
	}
	return mb.bramLocal + h2nRingOff + uint64(slot)*DescSize
}

// h2nSlotHostPA is where a delivered H2N descriptor lives in the host view.
func (mb *Mailbox) h2nSlotHostPA(slot int) uint64 {
	if mb.pio {
		return mb.hostStaging + uint64(slot)*DescSize
	}
	return mb.bramHostBase + h2nRingOff + uint64(slot)*DescSize
}

// WaitH2NUnclaimed blocks a board scheduler until a fresh call descriptor
// targeting its ISA arrives, and returns the slot.
func (mb *Mailbox) WaitH2NUnclaimed(p *sim.Proc, is isa.ISA) int {
	p.WaitFor(mb.schedC[is], func() bool { return len(mb.schedQ[is]) > 0 })
	// Shift the rest down rather than re-slice past the head, so the
	// queue keeps its backing array and the next arrival's append does
	// not reallocate.
	q := mb.schedQ[is]
	slot := q[0]
	mb.schedQ[is] = q[:copy(q, q[1:])]
	return slot
}

// RegisterWaiter declares that pid's thread is blocked on the given board
// core awaiting a descriptor. Must be called before the doorbell that
// invites the response, or the response could race past the registration.
// It reuses a waiter an earlier WaitH2N released, reset to empty.
func (mb *Mailbox) RegisterWaiter(pid uint32, is isa.ISA) {
	k := waiterKey{pid: pid, is: is}
	if _, dup := mb.waiters[k]; dup {
		panic(fmt.Sprintf("core: duplicate mailbox waiter for pid %d on %v", pid, is))
	}
	var w *mboxWaiter
	if n := len(mb.idle); n > 0 {
		w = mb.idle[n-1]
		mb.idle = mb.idle[:n-1]
		w.slot, w.has = 0, false
	} else {
		w = &mboxWaiter{cond: mb.env.NewCond("mbox.wait")}
	}
	mb.waiters[k] = w
}

// WaitH2N blocks until a descriptor for (pid, core) arrives, unregisters
// the waiter, and returns the slot. Pair with RegisterWaiter.
func (mb *Mailbox) WaitH2N(p *sim.Proc, pid uint32, is isa.ISA) int {
	k := waiterKey{pid: pid, is: is}
	w := mb.waiters[k]
	if w == nil {
		panic(fmt.Sprintf("core: WaitH2N without RegisterWaiter (pid %d on %v)", pid, is))
	}
	p.WaitFor(w.cond, func() bool { return w.has })
	delete(mb.waiters, k)
	// Signal has taken p off the cond, and only the map leads
	// h2nArrived here, so nothing reaches w until it is reused.
	mb.idle = append(mb.idle, w)
	return w.slot
}

// --- NxP → Host direction ------------------------------------------------

// StageN2HSlot returns the physical address (in the NxP's view) of the
// next free outbound staging slot, its index, and the sequence number to
// stamp into the descriptor: local BRAM normally, the host arrival buffer
// directly in PIO mode. The NxP migration handler or scheduler writes the
// descriptor there, then rings the N2H doorbell. The slot is the first
// one at or after the cursor whose previous descriptor has both landed
// and been taken by the host; when every slot is still owned, p waits
// for one to free.
func (mb *Mailbox) StageN2HSlot(p *sim.Proc) (localPA uint64, slot int, seq uint32) {
	for {
		for i := 0; i < mailboxSlots; i++ {
			slot = (mb.n2hCur + i) % mailboxSlots
			if mb.n2hBusy[slot] || mb.n2hHeld[slot] {
				continue
			}
			mb.n2hCur += i + 1
			seq = mb.nextSeq()
			if mb.pio {
				// The staging write lands in the arrival slot itself.
				mb.n2hHeld[slot] = true
				return mb.hostArrival + uint64(slot)*DescSize, slot, seq
			}
			mb.n2hBusy[slot] = true
			return mb.bramLocal + n2hStagingOff + uint64(slot)*DescSize, slot, seq
		}
		p.Wait(mb.n2hFree)
	}
}

// kickN2H DMAs a staged descriptor from BRAM into the host arrival buffer
// and raises the MSI on completion. In PIO mode the NxP already wrote the
// descriptor into the host arrival buffer with posted writes, so the
// doorbell only raises the interrupt.
func (mb *Mailbox) kickN2H(slot int) {
	mb.n2hSent++
	if mb.pio {
		mb.n2hArrived(slot)
		return
	}
	mb.n2hDMA[slot].attempt = 0
	mb.submitN2H(slot)
}

func (mb *Mailbox) submitN2H(slot int) {
	mb.dma.Submit(pcie.Request{
		SrcSpace: mb.host, Src: mb.bramHostBase + n2hStagingOff + uint64(slot)*DescSize,
		DstSpace: mb.host, Dst: mb.hostArrival + uint64(slot)*DescSize,
		Size: DescSize, Tag: "n2h-desc",
		OnDone: mb.n2hDMA[slot].done,
	})
}

func (mb *Mailbox) n2hArrived(slot int) {
	if err := mb.host.Read(mb.hostArrival+uint64(slot)*DescSize, mb.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: n2h arrival: %v", err))
	}
	d, err := DecodeDescriptor(mb.descBuf[:])
	if err != nil {
		panic(fmt.Sprintf("core: n2h arrival: %v", err))
	}
	if d.Seq != 0 && d.Seq == mb.n2hSeq[slot] {
		mb.mDupDrops.Inc()
		mb.env.Emit(sim.Event{Comp: mb.comp, Kind: sim.KindMailbox, Aux: uint64(slot), Note: "duplicate n2h delivery dropped"})
		return
	}
	mb.n2hBusy[slot] = false
	mb.n2hSeq[slot] = d.Seq
	mb.n2hHeld[slot] = true
	mb.n2hPending[d.PID] = slot
	mb.wake(int(d.PID))
}

// HasN2H reports whether an arrival descriptor is pending for pid — the
// kernel's migration probe: it validates wakes and recovers descriptors
// whose MSI was lost, without consuming the pending note.
func (mb *Mailbox) HasN2H(pid uint32) bool {
	_, ok := mb.n2hPending[pid]
	return ok
}

// PendingFor reports whether pid's migration is alive inside the
// transport: a board frame of the thread is blocked awaiting a descriptor,
// or a delivered call for it sits in a scheduler queue. Used by the
// kernel's migration probe to distinguish a slow callee from a lost wake;
// untimed, like the other simulator-side routing inspections.
func (mb *Mailbox) PendingFor(pid uint32) bool {
	for k := range mb.waiters {
		if k.pid == pid {
			return true
		}
	}
	for _, slots := range mb.schedQ {
		for _, slot := range slots {
			if mb.peekH2N(slot).PID == pid {
				return true
			}
		}
	}
	if mb.scanInflight {
		// Multi-board platforms also count descriptors that are mid-DMA
		// (staged but not yet arrived, possibly sitting out a retry
		// backoff): a timeout while one is still in flight could otherwise
		// fail over the migration and double-dispatch the call when the
		// late burst finally lands. The staging copies are intact (a
		// failed burst writes nothing), so peeking them is safe; abandoned
		// descriptors clear their busy flag and stop counting.
		for slot := 0; slot < mailboxSlots; slot++ {
			if mb.busyH2N[slot] {
				if err := mb.host.Read(mb.hostStaging+uint64(slot)*DescSize, mb.descBuf[:]); err == nil {
					if d, err := DecodeDescriptor(mb.descBuf[:]); err == nil && d.PID == pid {
						return true
					}
				}
			}
			if mb.n2hBusy[slot] {
				if err := mb.host.Read(mb.bramHostBase+n2hStagingOff+uint64(slot)*DescSize, mb.descBuf[:]); err == nil {
					if d, err := DecodeDescriptor(mb.descBuf[:]); err == nil && d.PID == pid {
						return true
					}
				}
			}
		}
	}
	return false
}

// HasWaiter reports whether pid has a blocked migration-handler frame on
// this mailbox's board core of the given ISA. The board scheduler pins
// follow-up calls for such a thread to this board: the blocked frame must
// be the one that continues.
func (mb *Mailbox) HasWaiter(pid uint32, is isa.ISA) bool {
	_, ok := mb.waiters[waiterKey{pid: pid, is: is}]
	return ok
}

// TakeN2H returns the host-DRAM physical address of the pending arrival
// descriptor for pid, consuming the pending note and releasing the slot.
// The caller reads the descriptor before it next yields, since the slot
// may be restaged from then on.
func (mb *Mailbox) TakeN2H(pid uint32) (uint64, bool) {
	slot, ok := mb.n2hPending[pid]
	if !ok {
		return 0, false
	}
	delete(mb.n2hPending, pid)
	mb.n2hHeld[slot] = false
	mb.n2hFree.Signal()
	return mb.hostArrival + uint64(slot)*DescSize, true
}

// SetPIO switches descriptor transport to programmed I/O (ablation).
func (mb *Mailbox) SetPIO(v bool) { mb.pio = v }

// Stats reports descriptors sent in each direction.
func (mb *Mailbox) Stats() (h2n, n2h int) { return mb.h2nSent, mb.n2hSent }
