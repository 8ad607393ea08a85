package sim

// Conservative run-ahead: the fast engine's path through multi-board
// machines.
//
// The event loop dispatches one process goroutine at a time. That is the
// source of the simulator's byte-for-byte determinism, but on a machine
// whose boards compute at the same virtual time it also means every board
// instruction's sleep finds another board's event queued ahead of it, so
// the in-place Sleep fast path never applies and each sleep pays a queue
// push and pop and a goroutine switch to the next board's process.
//
// Run-ahead lets board compute windows advance on private clocks without
// giving up the determinism contract, using the classic conservative
// (Chandy-Misra style) argument specialized to this machine's topology:
// every cross-board interaction is carried by the PCIe link, whose minimum
// crossing latency L is known up front. A core computing on board i at
// virtual time t cannot be influenced by anything board j does after
// virtual time t-L, so boards may run concurrently as long as no board
// gets more than L ahead of a pending cross-domain event.
//
// The platform arms it (EnableSimPar) on every machine it builds, with
// one domain per board and L derived from the link. Two cases stay on
// plain sequential dispatch: FLICKSIM_NOPREDECODE, the reference engine,
// under which EnableSimPar refuses, and a machine with a cpu.spurious
// fault rule, whose ghost faults draw from one PRNG stream shared by all
// cores and so only have a deterministic draw order under sequential
// stepping.
//
// The engine realizes this as fork-join "phases" instead of free-running
// per-domain queues:
//
//   - A process is *tagged* while it executes a compute window
//     (Proc.BeginCompute / Proc.EndCompute — the cpu package brackets
//     native calls with these). A tagged process belongs to a domain
//     (1+board index); everything else — host cores, DMA engines, timers,
//     the kernel — is untagged and always runs sequentially.
//   - When the event loop finds tagged processes of distinct domains at the
//     head of the queue within the lookahead window L, it forks them all at
//     once: each member gets a private clock (pNow) and a precomputed
//     horizon, and all member goroutines run truly concurrently.
//   - A member advances its private clock through Sleep without ever
//     touching the shared queue. The moment it would cross its horizon, or
//     would interact with anything outside its domain (syscall, fault
//     delivery, native helper, remote memory, a page-table walk), it parks:
//     it reports back to the scheduler and waits to be re-queued.
//   - While it runs in-phase, every private-clock sleep target is recorded
//     in the member's trajectory. When every member has parked, the
//     scheduler joins the phase by re-enqueueing each member's ORIGINAL
//     queue entry — original time, original sequence number — marked as a
//     phantom replay cursor. Dispatching a phantom replays the member's
//     trajectory through the real queue: each recorded sleep either takes
//     the in-place fast path (when it would have sequentially) or is
//     scheduled with a freshly drawn sequence number (ditto), and only when
//     the trajectory is exhausted does the goroutine actually resume at its
//     park point. The replay therefore reproduces, event for event and
//     sequence number for sequence number, exactly the queue interaction
//     the sequential engine would have performed — including the order in
//     which same-instant ties resolve. Externally visible artifacts — trace
//     entries, metrics — are only produced from sequential execution:
//     Proc.Emit parks first, and runtime statistics are sharded per
//     single-writer domain and merged at read time, so nothing ever depends
//     on how the member goroutines interleaved.
//
// Each member's horizon is the conservative bound
//
//	min( pending untagged event time,
//	     pending same-domain event time,
//	     pending other-domain tagged event time + L,
//	     other members' start time + L ) - 1
//
// minus one because the sequential Sleep fast path is strict: a sleep that
// ties an already-queued event must park through the queue so the queued
// event's sequence number wins, exactly as it does sequentially. Untagged
// events get no slack — a DMA burst completion or an MSI timer may touch any
// domain's memory the instant it fires — while tagged compute of another
// domain gets +L because its effects must cross the link first.
//
// Each member additionally carries a *strict* bound with no slack at all
// (min over every pending event and co-member start, minus one). In-phase
// TrySleepInPlace may only merge below it: below the strict bound nothing
// can possibly enter the queue before the target, so the sequential engine
// is guaranteed to have merged too, and the merged-versus-per-step decision
// — which controls sequence-number consumption and the superblock
// executor's bail paths — stays identical in both engines.
//
// During a phase the shared scheduler state (now, seq, queue, trace,
// metrics) is frozen: members mutate only their own Proc fields, their own
// core/MMU model state, and memory their PhaseLocal predicate vouches for.
// SchedSeq therefore stays readable (and constant) mid-phase, which keeps
// the superblock executor's staleness sentinel working unchanged.
//
// A phase with a single member is still useful: the member free-runs to its
// horizon with zero queue interaction, which is exactly the Sleep fast path
// the sequential engine loses the moment a multi-board machine keeps more
// than one event in flight.
//
// # Rounds: batched phases
//
// A phase does not end the first time a member's Sleep crosses its horizon.
// The member parks in place — still in-phase, still holding its recorded
// trajectory — and the scheduler runs a *round*: it recomputes every
// horizon-parked member's bound against the members' current positions
// (each sleeping co-member has provably committed nothing past its parked
// private clock, so its position + L replaces its phase-start time + L in
// the bound; a member gone to a sync point or a body return contributes its
// position with no slack, exactly like a barred queue entry) and resumes
// every member whose blocked sleep target now fits. Only when no member can
// make progress does the phase join. The queue-derived part of the bound is
// computed once per phase — the queue is frozen while members run — so a
// round costs one pass over the member table and no queue scans. Rounds
// collapse what used to be long chains of fork/join cycles (each paying the
// full join-replay-refork tax per horizon crossing) into one fat phase per
// conservative window, which is where the engine's phases/instruction ratio
// comes from. Soundness is unchanged: a resumed member's new horizon is
// still a conservative bound of exactly the same form, and everything a
// member does in-phase remains invisible until the join replays it.
//
// # Trajectory bound
//
// A member's trajectory is allocated with trajCap entries on its first
// phase and never grows. The Sleep whose append fills the last slot parks
// the member exactly as a horizon crossing does, the extension round does
// not resume a full member, and in-phase TrySleepInPlace declines once one
// slot is left, so the per-step Sleeps that follow do the parking. Ending
// a phase early is always conservative, because the join replays whatever
// was recorded; a long compute window costs one extra join per trajCap
// sleeps, and the engine's memory stays flat for the process's life.
//
// # Baton handoff
//
// Phases are forked and joined only on Run's goroutine: a process goroutine
// passing the baton (see Env) hands it back to Run when the head event is
// phase-eligible, and the ceding process may itself be one of the members.
// Member goroutines are the processes' own, and the park/resume handoff
// allocates nothing: a parking member writes its own slot in a
// preallocated park table and signals a sync.WaitGroup Run's goroutine
// waits on; a round decision travels on the member's one-element buffered
// phaseCmd channel, and the member's final resume arrives on its ordinary
// resume channel from whichever goroutine holds the baton when the
// trajectory replay ends. No channel, slice, or message is allocated per
// phase or per park.

// SimParStats reports the event engine's bookkeeping: the run-ahead
// engine's phase counts and, on either engine, the baton's goroutine
// handoffs. These are plain fields, deliberately NOT registry metrics: the
// metrics snapshot is part of the byte-identical artifact contract, and
// registering engine counters (even zero-valued ones — the registry prints
// every registered name) would make a fast run's metrics differ from a
// reference run's. Consumers that want them (benchmarks, tests, docs
// examples) read them through Env.SimParStats instead.
type SimParStats struct {
	Enabled         bool     // the engine may form phases
	Domains         int      // number of compute domains (boards) configured
	Lookahead       Duration // conservative lookahead window L
	Phases          uint64   // phases formed
	Members         uint64   // total members across all phases
	SingletonPhases uint64   // phases with exactly one member
	HorizonWaits    uint64   // sleep parks (each round a member waits at its bound or with a full trajectory)
	Rounds          uint64   // extension rounds that resumed at least one member
	ParkedEmits     uint64   // members parked out of a phase to emit a trace event

	// Handoffs counts the goroutine switches the baton took outside phases:
	// a process started or resumed by another goroutine, or the baton
	// returned to Run's goroutine. A process that resumes itself costs
	// none.
	Handoffs uint64
}

// trajCap is the fixed capacity of a member's trajectory (see "Trajectory
// bound" above).
const trajCap = 1024

// SimParStats returns the current engine statistics. All but Handoffs are
// zero when run-ahead was never armed.
func (e *Env) SimParStats() SimParStats {
	return SimParStats{
		Enabled:         e.simPar,
		Domains:         e.domains,
		Lookahead:       e.lookahead,
		Phases:          e.statPhases,
		Members:         e.statMembers,
		SingletonPhases: e.statSingletons,
		HorizonWaits:    e.statHorizonWaits,
		Rounds:          e.statRounds,
		ParkedEmits:     e.statParkedEmits,
		Handoffs:        e.statHandoffs,
	}
}

// EnableSimPar arms conservative run-ahead with the given number of
// compute domains and lookahead window. It refuses (silently staying
// sequential) when the lookahead or domain count is non-positive or when
// FLICKSIM_NOPREDECODE is set: the reference engine disables every fast
// path, this one included.
func (e *Env) EnableSimPar(domains int, lookahead Duration) {
	if domains <= 0 || lookahead <= 0 || e.noFast {
		return
	}
	e.simPar = true
	e.domains = domains
	e.lookahead = lookahead
	// Phase scratch: one slot per possible member (members have pairwise
	// distinct domains, so a phase never exceeds the domain count). Sized
	// here, reused by every phase, never reallocated.
	e.phaseMembers = make([]event, 0, domains)
	e.phaseMsgs = make([]parkMsg, domains)
	e.phaseState = make([]uint8, domains)
	e.qbTagged = make([]taggedBound, 0, 64)
}

// parkKind says why a phase member stopped running.
type parkKind int

const (
	parkSleep parkKind = iota // a Sleep crossed the member's horizon
	parkOp                    // a synchronization point (PhaseSync, Wait, EndCompute)
	parkDone                  // the member's body returned (or panicked)
)

// parkMsg is a member's report back to the scheduler, written into the
// member's own slot of Env.phaseMsgs before it signals the phase
// WaitGroup. pos is the member's private clock at the park, the input to
// the next round's horizon recomputation; target is the blocked sleep
// target for a parkSleep, the value the new horizon must cover for the
// member to resume in-phase.
type parkMsg struct {
	kind   parkKind
	pos    Time // private clock at the park
	target Time // parkSleep only: the sleep target that crossed the horizon
	panicV any  // parkDone only: recovered panic, if any
	emit   bool // parkOp only: the park was forced by a trace emit
}

// taggedBound is one pending tagged compute event in the frozen queue,
// recorded by scanPhaseBounds for the per-domain horizon queries.
type taggedBound struct {
	at     Time
	domain int
}

// BeginCompute marks the start of a compute window on the process: while
// the depth is nonzero the process is tagged with the given domain and is
// eligible for phase membership. Windows nest; only the outermost call sets
// the domain. Cheap enough to call unconditionally — when run-ahead is not
// armed the tag is simply never consulted.
func (p *Proc) BeginCompute(domain int) {
	p.computeDepth++
	if p.computeDepth == 1 {
		p.domain = domain
		// A fresh outermost window starts at a clean boundary, so a
		// sync-point bar from the previous window lifts here.
		p.phaseBarred = false
	}
}

// EndCompute closes a compute window. Closing the outermost window while
// the process is running inside a phase parks it: whatever follows the
// window (scheduler glue, MMIO, kernel calls) must run sequentially.
func (p *Proc) EndCompute() {
	p.computeDepth--
	if p.computeDepth == 0 {
		p.domain = 0
		if p.inPhase {
			p.phasePark(parkOp)
		}
	}
}

// InPhase reports whether the process is currently running as a phase
// member on its private clock.
func (p *Proc) InPhase() bool { return p.inPhase }

// PhaseSync parks the process out of its phase, if it is in one, and
// returns with the process running sequentially at its private-clock time.
// Components call it before any interaction that could observe or mutate
// state outside the process's domain.
//
// Outside a phase it still bars a tagged process from membership until its
// next outermost BeginCompute. The call marks the start of a shared-state
// region of unknown extent (a page walk, a fault delivery, a syscall), and
// that region may contain ordinary sequential Sleeps — the walk-cost charge
// between a PhaseSync and the page-table Accessed-bit update, say. Without
// the bar, such a sleep's continuation is a perfectly eligible queue entry,
// and the scheduler would fork it into a phase and resume it concurrently
// in the middle of the shared region. Untagged processes are unaffected,
// so call sites still need no run-ahead awareness of their own.
func (p *Proc) PhaseSync() {
	if p.inPhase {
		p.phasePark(parkOp)
		return
	}
	if p.computeDepth > 0 {
		p.phaseBarred = true
	}
}

// Emit records ev in the environment's trace. A trace entry is an
// externally visible artifact, so inside a phase it is a synchronization
// point: the member parks, resumes sequentially at its private-clock time,
// and emits with the shared clock — which reproduces the sequential trace
// order exactly. (Buffering in-phase events in per-member shards and
// merging at the join was tried and rejected: a parked co-member can resume
// and emit at an earlier timestamp after the join, and sequential tie order
// at equal timestamps cannot be reconstructed post-hoc.) When tracing is
// disabled — every golden and benchmark configuration — the in-phase call
// is a single branch and the member keeps running. Components that can emit
// from compute windows must use this instead of Env.Emit.
func (p *Proc) Emit(ev Event) {
	if p.inPhase {
		if !p.env.trace.Enabled() {
			return
		}
		p.phaseParkEmit()
	}
	p.env.Emit(ev)
}

// phasePark transitions the member back under scheduler control. It must
// only be called by the member's own goroutine while inPhase. The member
// blocks until its trajectory has replayed through the queue and the
// resulting phantom cursor resumes it; on return the process is running
// sequentially with the shared clock at its park point (the last recorded
// trajectory entry, or its original dispatch time if it never slept).
//
// A parkOp bars the process from further phase membership until its next
// outermost BeginCompute: the park site is a shared-state boundary of
// unknown extent (a page walk, a fault delivery, a syscall), so the
// continuation — and every later resumption inside the same compute
// window — must run sequentially. Re-forking it into a phase would resume
// it concurrently in the middle of that shared region. A parkSleep carries
// no bar: the member stopped at an ordinary sleep boundary purely because
// the horizon cut it, and resuming that in a later phase is safe.
func (p *Proc) phasePark(kind parkKind) {
	p.inPhase = false
	if kind == parkOp {
		p.phaseBarred = true
	}
	e := p.env
	e.phaseMsgs[p.phaseIdx] = parkMsg{kind: kind, pos: p.pNow}
	e.phaseWG.Done()
	<-p.resume
}

// phaseParkEmit is phasePark(parkOp) flagged as a trace-emit park, so the
// scheduler can count how often tracing breaks phases (SimParStats
// .ParkedEmits) without the member touching shared counters.
func (p *Proc) phaseParkEmit() {
	p.inPhase = false
	p.phaseBarred = true
	e := p.env
	e.phaseMsgs[p.phaseIdx] = parkMsg{kind: parkOp, pos: p.pNow, emit: true}
	e.phaseWG.Done()
	<-p.resume
}

// phaseWaitSleep parks the member at an in-phase sleep whose target crossed
// the current horizon, or whose append filled the trajectory, and waits for
// the scheduler's round decision. On an extend the scheduler has already
// raised p.pHorizon to cover the target and the member resumes in-phase
// (returns true). On a join the member leaves the phase and blocks until
// its trajectory has replayed through the queue; it returns false running
// sequentially with the shared clock at the sleep target, exactly like the
// old single-round park.
func (p *Proc) phaseWaitSleep(target Time) bool {
	e := p.env
	e.phaseMsgs[p.phaseIdx] = parkMsg{kind: parkSleep, pos: p.pNow, target: target}
	e.phaseWG.Done()
	if <-p.phaseCmd {
		return true
	}
	p.inPhase = false
	<-p.resume
	return false
}

// phaseEligible reports whether a queue entry can seed or join a phase: a
// runnable process inside a compute window of a real domain, not barred by
// a sync-point park. Timers and untagged processes always dispatch
// sequentially, as do phantom replay cursors — the goroutine behind a
// phantom is parked somewhere past the cursor's position, so forking it
// would hand the phase a process whose clock and code location disagree.
func phaseEligible(ev event) bool {
	return ev.timer == nil && !ev.phantom &&
		ev.proc.state == stateRunnable &&
		ev.proc.computeDepth > 0 &&
		ev.proc.domain > 0 &&
		!ev.proc.phaseBarred
}

// tryPhase attempts to form and run one phase from the head of the event
// queue. It returns false — popping nothing — when the head event must
// dispatch sequentially.
func (e *Env) tryPhase() bool {
	top := e.queue.Head()
	if top == nil || top.at > e.horizon || !phaseEligible(*top) {
		return false
	}
	// Pop the maximal contiguous prefix of eligible events with pairwise
	// distinct domains inside the lookahead window. Two same-domain
	// processes share memory with zero latency and must interleave exactly
	// as the sequential engine would, so the second one ends the prefix
	// (and typically seeds the next phase). The member table is the
	// preallocated phase scratch; its capacity (the domain count) also
	// bounds the prefix so park slots never run out.
	limit := top.at.Add(e.lookahead)
	members := e.phaseMembers[:0]
	for len(members) < cap(members) {
		ev := e.queue.Head()
		if ev == nil || ev.at > limit || ev.at > e.horizon || !phaseEligible(*ev) {
			break
		}
		dup := false
		for i := range members {
			if members[i].proc.domain == ev.proc.domain {
				dup = true
				break
			}
		}
		if dup {
			break
		}
		members = append(members, *ev)
		e.queue.Pop()
	}
	e.runPhase(members)
	return true
}

// scanPhaseBounds derives, in one pass over the frozen queue, everything
// the phase's horizon queries need: qbOther — the minimum time over events
// that get no lookahead slack (timers, untagged processes, barred
// processes); qbTagged — the (time, domain) of every pending tagged
// compute event, which get +L slack against other domains and none against
// their own; qbAll — the minimum over everything, the strict bound's
// queue component. The queue cannot change while members run, so one scan
// serves the initial horizons and every extension round of the phase.
func (e *Env) scanPhaseBounds() {
	e.qbOther = maxTime
	e.qbAll = maxTime
	tagged := e.qbTagged[:0]
	e.queue.forEach(func(q *event) {
		if q.at < e.qbAll {
			e.qbAll = q.at
		}
		if q.timer == nil && q.proc.computeDepth > 0 && q.proc.domain > 0 &&
			!q.proc.phaseBarred {
			tagged = append(tagged, taggedBound{at: q.at, domain: q.proc.domain})
			return
		}
		if q.at < e.qbOther {
			e.qbOther = q.at
		}
	})
	e.qbTagged = tagged
}

// queueBound returns the queue-derived horizon component for a member of
// domain d: pending tagged compute of another domain gets +L slack — its
// effects must cross the link before they can touch this member's domain —
// while same-domain tagged events, untagged events, timers, and barred
// processes (which resume mid-glue and may touch shared state the instant
// they wake) get none. Requires a preceding scanPhaseBounds.
func (e *Env) queueBound(d int) Time {
	bound := e.qbOther
	for i := range e.qbTagged {
		b := e.qbTagged[i].at
		if e.qbTagged[i].domain != d {
			b = b.Add(e.lookahead)
		}
		if b < bound {
			bound = b
		}
	}
	return bound
}

// memberHorizon computes the conservative horizon for member i: the largest
// private-clock value it may reach without risking an interaction the
// sequential engine would have ordered differently. See the package comment
// at the top of this file for the derivation. (Tests call this directly;
// runPhase scans the bounds once and calls horizonFrom per member.)
func (e *Env) memberHorizon(members []event, i int) Time {
	e.scanPhaseBounds()
	return e.horizonFrom(members, i)
}

// horizonFrom is memberHorizon against already-scanned queue bounds.
func (e *Env) horizonFrom(members []event, i int) Time {
	bound := e.queueBound(members[i].proc.domain)
	for j := range members {
		if j == i {
			continue
		}
		if b := members[j].at.Add(e.lookahead); b < bound {
			bound = b
		}
	}
	// Strictly below the bound: a sleep that ties a queued event parks, so
	// the queued event's earlier sequence number wins, exactly as in the
	// sequential Sleep fast path.
	h := bound - 1
	if e.horizon < h {
		h = e.horizon
	}
	return h
}

// memberStrict computes the no-slack bound for member i: strictly below
// the earliest pending event or co-member start, nothing can possibly be
// queued ahead of the member, so the sequential engine is guaranteed to
// take the in-place Sleep fast path there. In-phase TrySleepInPlace merges
// only below this bound, which keeps merged-versus-per-step decisions —
// and hence sequence-number consumption — identical to sequential.
func (e *Env) memberStrict(members []event, i int) Time {
	e.scanPhaseBounds()
	return e.strictFrom(members, i)
}

// strictFrom is memberStrict against already-scanned queue bounds.
func (e *Env) strictFrom(members []event, i int) Time {
	bound := e.qbAll
	for j := range members {
		if j == i {
			continue
		}
		if members[j].at < bound {
			bound = members[j].at
		}
	}
	s := bound - 1
	if e.horizon < s {
		s = e.horizon
	}
	return s
}

// roundHorizon recomputes member i's conservative horizon for an extension
// round, substituting every co-member's *current* parked position for its
// phase-start time. A co-member still in the phase (sleep-parked, or just
// resumed this same round) has committed nothing past its parked private
// clock and its future effects must still cross the link, so it
// contributes pos + L; a member gone to a sync point or a body return will
// resume sequentially at its position and may touch shared state the
// instant it wakes, so it contributes pos with no slack — the same rule
// the queue scan applies to barred entries. The queue components are the
// phase-start scan: the queue is frozen while the phase runs.
func (e *Env) roundHorizon(members []event, i int, st []uint8) Time {
	bound := e.queueBound(members[i].proc.domain)
	for j := range members {
		if j == i {
			continue
		}
		b := e.phaseMsgs[j].pos
		if st[j] != phGone {
			b = b.Add(e.lookahead)
		}
		if b < bound {
			bound = b
		}
	}
	h := bound - 1
	if e.horizon < h {
		h = e.horizon
	}
	return h
}

// Round states of a phase member, tracked in the Env.phaseState scratch.
const (
	phRunning     uint8 = iota // member goroutine is executing in-phase
	phSleepParked              // blocked at a horizon crossing, awaiting the round decision
	phGone                     // parked at a sync point or retired; out of the phase for good
)

// runPhase forks the members, then alternates execution and extension
// rounds: whenever every still-running member has parked, horizon-parked
// members whose blocked sleep target fits a recomputed (position-based)
// bound are resumed in-phase; when none can make progress the phase joins
// by restoring every member's original queue entry as a phantom replay
// cursor. The join itself decides nothing about ordering: the queue
// replays each trajectory in exactly the interleaving the sequential
// engine would have produced, independent of how the member goroutines
// raced in wall time.
func (e *Env) runPhase(members []event) {
	k := len(members)
	e.statPhases++
	e.statMembers += uint64(k)
	if k == 1 {
		e.statSingletons++
	}
	e.now = members[0].at

	// Bounds are computed against the post-pop queue, before any member
	// runs; from here to the final WaitGroup wait the scheduler touches no
	// state a member can observe.
	e.scanPhaseBounds()
	st := e.phaseState[:k]
	msgs := e.phaseMsgs[:k]
	for i, ev := range members {
		p := ev.proc
		p.inPhase = true
		p.phaseIdx = i
		p.pNow = ev.at
		p.pHorizon = e.horizonFrom(members, i)
		p.pStrict = e.strictFrom(members, i)
		if p.traj == nil {
			// First phase membership: size the trajectory for a fat batched
			// phase up front. The trajectory bound keeps appends inside it,
			// so it is reused (re-sliced, never regrown) for the process's
			// life.
			p.traj = make([]Time, 0, trajCap)
		}
		p.traj = p.traj[:0]
		p.cursor = 0
		p.state = stateRunning
		if p.phaseCmd == nil {
			p.phaseCmd = make(chan bool, 1)
		}
		st[i] = phRunning
		msgs[i] = parkMsg{}
	}
	e.phaseWG.Add(k)
	for _, ev := range members {
		ev.proc.resume <- struct{}{}
	}

	var panicV any
	for {
		e.phaseWG.Wait()
		// Classify the members that parked since the last round. A member
		// that was already sleep-parked keeps its slot untouched.
		for i := 0; i < k; i++ {
			if st[i] != phRunning {
				continue
			}
			if msgs[i].kind == parkSleep {
				st[i] = phSleepParked
				e.statHorizonWaits++
				continue
			}
			st[i] = phGone
			if msgs[i].emit {
				e.statParkedEmits++
			}
			if msgs[i].kind == parkDone && msgs[i].panicV != nil && panicV == nil {
				panicV = msgs[i].panicV
			}
		}
		if panicV != nil {
			break
		}
		// Extension round: resume every sleep-parked member whose blocked
		// target fits its recomputed horizon. The horizon must strictly
		// grow — the target crossed the old bound, so covering it implies
		// growth — and is written before the resume, so the member sees it.
		// A member whose trajectory is full stays parked until the join.
		resumed := 0
		for i := 0; i < k; i++ {
			if st[i] != phSleepParked {
				continue
			}
			p := members[i].proc
			if len(p.traj) == cap(p.traj) {
				continue
			}
			h := e.roundHorizon(members, i, st)
			if h >= msgs[i].target && h > p.pHorizon {
				p.pHorizon = h
				st[i] = phRunning
				resumed++
			}
		}
		if resumed == 0 {
			break
		}
		e.statRounds++
		e.phaseWG.Add(resumed)
		for i := 0; i < k; i++ {
			if st[i] == phRunning {
				members[i].proc.phaseCmd <- true
			}
		}
	}

	// Join. Members still blocked at their horizon leave the phase first
	// (the join command unblocks phaseWaitSleep, which then waits for its
	// trajectory replay like any other park). Each member's original entry
	// goes back on the queue — original time, original sequence number —
	// marked phantom; a member that never slept replays an empty trajectory
	// and resumes at exactly the slot the sequential engine would have
	// dispatched it. A panic aborts the simulation immediately (lowest
	// member index wins, deterministically); a clean in-phase body return
	// retires through the replay so its final sleeps still consume the
	// sequence numbers they would have sequentially.
	for i := 0; i < k; i++ {
		if st[i] == phSleepParked {
			members[i].proc.phaseCmd <- false
		}
	}
	for i := 0; i < k; i++ {
		p := members[i].proc
		if msgs[i].kind == parkDone {
			if msgs[i].panicV != nil {
				p.state = stateDone
				e.running--
				continue
			}
			p.phaseDone = true
		}
		ev := members[i]
		ev.phantom = true
		e.queue.Push(ev)
		p.state = stateRunnable
	}
	if panicV != nil {
		panic(panicV)
	}
}

// replayStep advances a parked member's deferred trajectory replay by one
// dispatch. Recorded sleep targets take the in-place fast path or are
// re-scheduled as the next phantom cursor under exactly the rules the
// sequential Sleep would have applied at this point in the queue's
// evolution. When the trajectory is exhausted it returns the process,
// marked running, for the baton holder to resume at its park point — or,
// for a body that returned in-phase, retires it — with the shared clock
// where the sequential engine would have put it. Otherwise it returns nil.
func (e *Env) replayStep(ev event) *Proc {
	p := ev.proc
	e.now = ev.at
	for p.cursor < len(p.traj) {
		t := p.traj[p.cursor]
		p.cursor++
		if !e.noFast && t <= e.horizon {
			if h := e.queue.Head(); h == nil || t < h.at {
				e.now = t
				continue
			}
		}
		e.seq++
		e.queue.Push(event{at: t, seq: e.seq, proc: p, phantom: true})
		return nil
	}
	if p.phaseDone {
		p.phaseDone = false
		p.state = stateDone
		e.running--
		return nil
	}
	p.state = stateRunning
	return p
}
