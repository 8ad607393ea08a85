package sim

// Conservative run-ahead: the fast engine's path through multi-board
// machines.
//
// The event loop runs one process at a time. That is the source of the
// simulator's byte-for-byte determinism, but on a machine whose boards
// compute at the same virtual time it also means every board
// instruction's sleep finds another board's event queued ahead of it, so
// the in-place Sleep fast path never applies and each sleep pays a queue
// push and pop and a handoff to the next board's process.
//
// Run-ahead lets a board compute window advance on a private clock
// without giving up the determinism contract, using the classic
// conservative (Chandy-Misra style) argument specialized to this
// machine's topology: every cross-board interaction is carried by the
// PCIe link, whose minimum crossing latency L is known up front. A core
// computing on board i at virtual time t cannot be influenced by anything
// board j does after virtual time t-L, so a board may run ahead of a
// pending cross-domain event by up to L.
//
// The platform arms it (EnableRunAhead) on every machine it builds, with
// one domain per board and L derived from the link. Only the reference
// engine, FLICKSIM_NOPREDECODE, stays on plain sequential dispatch:
// EnableRunAhead refuses under it.
//
// The engine realizes this as run-ahead *windows*, one process at a time:
//
//   - A process is *tagged* while it executes a compute window
//     (Proc.BeginCompute / Proc.EndCompute — the cpu package brackets
//     native calls with these). A tagged process belongs to a domain
//     (1+board index); everything else — host cores, the kernel, and the
//     timers that drive the DMA engines and MSIs — is untagged and always
//     runs sequentially.
//   - When the event loop pops a runnable tagged process, it may open a
//     window for it (openWindow): the process gets a private clock (pNow)
//     and a horizon from one scan of the queue, and runs ahead alone, on
//     its own coroutine, which holds the baton like any resumed process.
//     The popped entry goes straight back into the queue as the process's
//     phantom replay cursor: original time, original sequence number.
//   - In the window the process advances its private clock through Sleep
//     without touching the shared queue, recording every sleep target in
//     its trajectory. The window ends the moment a sleep would cross the
//     horizon or fill the trajectory, or the process would interact with
//     anything outside its domain (syscall, fault delivery, native helper,
//     remote memory, a page-table walk, a ghost fault: Sync), closes its
//     compute window (EndCompute), emits a trace event, or its body
//     returns.
//   - Ending the window cedes through the ordinary baton pass, and the
//     phantom, still the queue's head, is dispatched next. Dispatching a
//     phantom replays the trajectory through the real queue: each
//     recorded sleep either takes the in-place fast path (when it would
//     have sequentially) or is scheduled with a freshly drawn sequence
//     number (ditto), and only when the trajectory is exhausted does the
//     process actually resume at its end. The replay therefore
//     reproduces, event for event and sequence number for sequence number,
//     exactly the queue interaction the sequential engine would have
//     performed — including the order in which same-instant ties resolve.
//     Externally visible artifacts — trace entries, metrics — are only
//     produced from sequential execution: Proc.Emit ends the window first.
//
// A window's horizon is the conservative bound
//
//	min( pending untagged event time,
//	     pending barred or same-domain event time,
//	     pending other-domain tagged event time + L ) - 1
//
// minus one because the sequential Sleep fast path is strict: a sleep that
// ties an already-queued event must go through the queue so the queued
// event's sequence number wins, exactly as it does sequentially. Untagged
// events get no slack — a DMA burst completion or an MSI timer may touch
// any domain's memory the instant it fires — while tagged compute of
// another domain gets +L because its effects must cross the link first.
//
// A pending phantom counts at the end of its recorded trajectory, not at
// its cursor. Between the two its replay only pushes and pops queue
// entries; the process behind it runs no code before the trajectory's
// last target, where it resumes. That is sound for the same
// reason the +L slack is: the bound limits how far this window may run
// ahead of code that can affect its domain, and a phantom's next code
// runs at its trajectory end, with the tag and bar it had when its own
// window ended. The replay steps before that touch only the queue — they
// draw sequence numbers and advance the clock, never run model code — and
// the replay of this window's own trajectory later resolves every tie
// against them through the queue.
//
// A window opens only when its horizon reaches the queue's head: below
// the head the sequential in-place Sleep already does the work without a
// replay, so the process simply resumes sequentially. On a one-domain
// machine no pending tagged event is of another domain, so no window ever
// opens. And the trajectory-end rule above keeps a process whose replay
// is pending from cutting other windows short at its cursor.
//
// During a window the shared scheduler state (now, seq, trace, metrics,
// and the queue but for the window's own phantom) is frozen: the process
// mutates only its own Proc fields, its own core/MMU model state, and
// memory its DomainLocal predicate vouches for. SchedSeq therefore stays
// readable (and constant) mid-window, which keeps the superblock
// executor's staleness sentinel working unchanged.
//
// # Trajectory bound
//
// A process's trajectory is allocated with trajCap entries on its first
// window and never grows. The Sleep whose append fills the last slot ends
// the window exactly as a horizon crossing does. In a window
// TrySleepInPlace always declines, so a batch executor charges per-step
// Sleeps there and each one is recorded. Ending a window early is always
// conservative, because the replay covers whatever was recorded; a long
// compute window costs one extra replay per trajCap sleeps, and the
// engine's memory stays flat for the process's life.

// EngineStats reports the event engine's bookkeeping: the run-ahead
// engine's window counts and, on either engine, the baton's handoffs and
// the timers fired. These are plain fields, deliberately NOT registry
// metrics: the metrics snapshot is part of the byte-identical artifact
// contract, and registering engine counters (even zero-valued ones — the
// registry prints every registered name) would make a fast run's metrics
// differ from a reference run's. Consumers that want them (benchmarks,
// tests, docs examples) read them through Env.EngineStats instead.
type EngineStats struct {
	Enabled      bool     // the engine may open run-ahead windows
	Domains      int      // number of compute domains (boards) configured
	Lookahead    Duration // conservative lookahead window L
	Windows      uint64   // run-ahead windows opened
	HorizonWaits uint64   // windows ended by a sleep past the horizon or one filling the trajectory
	ParkedEmits  uint64   // windows ended to emit a trace event

	// Handoffs counts the baton's handoffs. Each is a coroutine
	// resumption, a process started or resumed from Run's goroutine
	// (window entries included), or the baton returned to Run's goroutine.
	// A process that resumes itself costs none.
	Handoffs uint64
	// Timers counts timer callbacks run: AfterFunc and Arm expiries, on
	// whichever coroutine held the baton. A stopped timer's entry is
	// skipped and not counted.
	Timers uint64
}

// trajCap is the fixed capacity of a trajectory (see "Trajectory bound"
// above).
const trajCap = 1024

// EngineStats returns the current engine statistics. All but Handoffs and
// Timers are zero when run-ahead was never armed.
func (e *Env) EngineStats() EngineStats {
	return EngineStats{
		Enabled:      e.runAhead,
		Domains:      e.domains,
		Lookahead:    e.lookahead,
		Windows:      e.statWindows,
		HorizonWaits: e.statHorizonWaits,
		ParkedEmits:  e.statParkedEmits,
		Handoffs:     e.statHandoffs,
		Timers:       e.statTimers,
	}
}

// EnableRunAhead arms conservative run-ahead with the given number of
// compute domains and lookahead window. It refuses (silently staying
// sequential) when the lookahead or domain count is non-positive or when
// FLICKSIM_NOPREDECODE is set: the reference engine disables every fast
// path, this one included.
func (e *Env) EnableRunAhead(domains int, lookahead Duration) {
	if domains <= 0 || lookahead <= 0 || e.noFast {
		return
	}
	e.runAhead = true
	e.domains = domains
	e.lookahead = lookahead
}

// BeginCompute marks the start of a compute window on the process: while
// the depth is nonzero the process is tagged with the given domain and may
// run ahead. Windows nest; only the outermost call sets the domain. Cheap
// enough to call unconditionally — when run-ahead is not armed the tag is
// simply never consulted.
func (p *Proc) BeginCompute(domain int) {
	p.computeDepth++
	if p.computeDepth == 1 {
		p.domain = domain
		// A fresh outermost window starts at a clean boundary, so a
		// sync-point bar from the previous window lifts here.
		p.barred = false
	}
}

// EndCompute closes a compute window. Closing the outermost window while
// the process runs ahead ends the run-ahead window: whatever follows the
// compute window (scheduler glue, MMIO, kernel calls) must run
// sequentially.
func (p *Proc) EndCompute() {
	p.computeDepth--
	if p.computeDepth == 0 {
		p.domain = 0
		if p.inWindow {
			p.endWindow()
		}
	}
}

// InWindow reports whether the process is currently running ahead in a
// window on its private clock.
func (p *Proc) InWindow() bool { return p.inWindow }

// Sync ends the process's run-ahead window, if it is in one, and
// returns with the process running sequentially at its private-clock time.
// Components call it before any interaction that could observe or mutate
// state outside the process's domain.
//
// It also bars a tagged process from run-ahead until its next outermost
// BeginCompute. The call marks the start of a shared-state region of
// unknown extent (a page walk, a fault delivery, a syscall), and that
// region may contain ordinary sequential Sleeps — the walk-cost charge
// between a Sync and the page-table Accessed-bit update, say. Without
// the bar, such a sleep's continuation is a perfectly eligible queue
// entry, and the event loop would open a window in the middle of the
// shared region. Untagged processes are unaffected, so call sites still
// need no run-ahead awareness of their own.
func (p *Proc) Sync() {
	if p.computeDepth > 0 {
		p.barred = true
	}
	if p.inWindow {
		p.endWindow()
	}
}

// Emit records ev in the environment's trace. A trace entry is an
// externally visible artifact, so inside a window it is a synchronization
// point: the window ends, the process resumes sequentially at its
// private-clock time, and emits with the shared clock — which reproduces
// the sequential trace order exactly. When tracing is disabled — every
// golden and benchmark configuration — the in-window call is a single
// branch and the window goes on. Components that can emit from compute
// windows must use this instead of Env.Emit.
func (p *Proc) Emit(ev Event) {
	if p.inWindow && p.env.trace.Enabled() {
		p.env.statParkedEmits++
		p.Sync()
	}
	p.env.Emit(ev)
}

// tagged reports whether the process's pending or future code runs inside
// a compute window of a real domain, not barred by a sync point: such a
// process may run ahead, and takes the +L slack against other domains.
func (p *Proc) tagged() bool {
	return p.computeDepth > 0 && p.domain > 0 && !p.barred
}

// openWindow is called by the event loop with the entry it just popped for
// a tagged process, the shared clock at the entry's time. It opens a
// window for the process when the horizon reaches the queue's head, and
// pushes the entry straight back as the process's phantom replay cursor;
// otherwise the process resumes sequentially as usual. Only a popped
// process entry can open a window, never a timer or a phantom cursor: the
// process a replay resumes runs sequentially until its next queued sleep.
func (e *Env) openWindow(ev event) {
	p := ev.proc
	// Only a phantom or another domain's tagged entry at the head can lift
	// the horizon to the head; anything else at the head bounds it below
	// its own time, so the scan is skipped.
	h := e.queue.Head()
	if h == nil || !h.phantom && (h.timer != nil || !h.proc.tagged() || h.proc.domain == p.domain) {
		return
	}
	horizon := e.windowHorizon(p.domain)
	if horizon < h.at {
		return
	}
	e.statWindows++
	p.inWindow = true
	p.pNow, p.pHorizon = ev.at, horizon
	if p.traj == nil {
		// First window: size the trajectory once. The trajectory bound
		// keeps appends inside it, so it is reused (re-sliced, never
		// regrown) for the process's life.
		p.traj = make([]Time, 0, trajCap)
	}
	p.traj = p.traj[:0]
	p.cursor = 0
	ev.phantom = true
	e.queue.Push(ev)
}

// windowHorizon derives, in one scan of the queue, the conservative
// horizon of a window for a process of domain d (see the top of this
// file), capped at the RunUntil deadline.
func (e *Env) windowHorizon(d int) Time {
	bound := maxTime
	e.queue.forEach(func(q *event) {
		b := q.at
		if q.timer == nil {
			p := q.proc
			if q.phantom && len(p.traj) > 0 {
				b = p.traj[len(p.traj)-1] // where the phantom's process next runs code
			}
			if p.tagged() && p.domain != d {
				b = b.Add(e.lookahead)
			}
		}
		if b < bound {
			bound = b
		}
	})
	return min(bound-1, e.horizon)
}

// endWindow ends the process's window from its own coroutine and cedes.
// It returns once the replay has run the trajectory out, with the process
// running sequentially and the shared clock at the trajectory's end (the
// window's start if it recorded nothing).
func (p *Proc) endWindow() {
	p.leaveWindow()
	p.cede()
}

// leaveWindow drops the process off its private clock. Its phantom
// cursor, queued when the window opened, is still the queue's head, so
// the next dispatch starts the replay.
func (p *Proc) leaveWindow() {
	p.inWindow = false
	p.state = stateRunnable
}

// replayStep advances a phantom's deferred trajectory replay by one
// dispatch. Recorded sleep targets take the in-place fast path or are
// re-scheduled as the next phantom cursor under exactly the rules the
// sequential Sleep would have applied at this point in the queue's
// evolution. When the trajectory is exhausted it returns the process,
// marked running, for the baton holder to resume at the trajectory's end —
// or, for a body that returned in its window, retires it — with the shared
// clock where the sequential engine would have put it. Otherwise it
// returns nil.
func (e *Env) replayStep(ev event) *Proc {
	p := ev.proc
	e.now = ev.at
	for p.cursor < len(p.traj) {
		t := p.traj[p.cursor]
		p.cursor++
		if e.advanceInPlace(t) {
			continue
		}
		e.seq++
		e.queue.Push(event{at: t, seq: e.seq, proc: p, phantom: true})
		return nil
	}
	if p.doneInWindow {
		p.doneInWindow = false
		p.state = stateDone
		return nil
	}
	p.state = stateRunning
	return p
}
