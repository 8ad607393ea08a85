package sim

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

// FastPathsDisabled reports whether FLICKSIM_NOPREDECODE selects the
// reference engine. It disables every wall-clock fast path in the
// simulator (the in-place Sleep advance here, run-ahead in domain.go, the
// superblock cache in internal/cpu, the last-translation cache in
// internal/mmu) so tests and CI can prove the default engine produces
// byte-identical artifacts. Read at construction time (NewEnv, cpu.New,
// mmu.New), never per step, so tests can flip it with t.Setenv.
func FastPathsDisabled() bool { return os.Getenv("FLICKSIM_NOPREDECODE") != "" }

// Env is a discrete-event simulation environment. Processes are spawned
// with Spawn and advance virtual time with Proc.Sleep, Proc.Wait, and
// related primitives. Run drives the simulation until no runnable work
// remains or a stop condition fires.
//
// Exactly one process goroutine executes at a time; the scheduler goroutine
// and the running process hand control back and forth over unbuffered
// channels, so the simulation is fully deterministic despite being built
// from goroutines.
type Env struct {
	now     Time
	seq     uint64
	queue   eventQueue
	procs   []*Proc
	running int // processes spawned and not yet finished

	// horizon bounds the in-place Sleep fast path: RunUntil sets it to its
	// deadline so a fast-forwarding process cannot advance the clock past
	// the point where the event loop must stop. Run resets it to maxTime.
	horizon Time
	noFast  bool // FLICKSIM_NOPREDECODE: force every Sleep through the queue

	trace   *Trace
	metrics *Metrics
	panicV  any           // re-thrown panic from a process
	yield   chan yieldMsg // handed a token each time the running process cedes control

	// Conservative run-ahead (see domain.go). All zero/nil until
	// EnableSimPar arms it; unarmed, the event loops consult nothing here
	// beyond the single e.simPar branch.
	simPar           bool
	domains          int
	lookahead        Duration
	statPhases       uint64
	statMembers      uint64
	statSingletons   uint64
	statHorizonWaits uint64
	statRounds       uint64
	statParkedEmits  uint64

	// Phase scratch, preallocated once by EnableSimPar and reused by every
	// phase so the fork/join hot path allocates nothing: member entries,
	// per-member park slots and round states, and the queue-derived horizon
	// bounds computed once per phase (see scanPhaseBounds). phaseWG is the
	// members' handoff back to the scheduler: each member writes its own
	// phaseMsgs slot and calls Done, replacing the old per-park channel
	// rendezvous.
	phaseMembers []event
	phaseMsgs    []parkMsg
	phaseState   []uint8
	phaseWG      sync.WaitGroup
	qbTagged     []taggedBound
	qbOther      Time
	qbAll        Time
}

// maxTime is the largest representable virtual time, used as the "no
// deadline" horizon for the Sleep fast path.
const maxTime = Time(math.MaxInt64)

// EnvOption configures a new environment.
type EnvOption func(*Env)

// WithTraceCapacity bounds the environment's event trace at capacity
// events (0 disables recording; events past the bound are counted as
// drops, never silently lost).
func WithTraceCapacity(capacity int) EnvOption {
	return func(e *Env) { e.trace = NewTrace(capacity) }
}

// NewEnv creates an empty simulation environment at time zero. Without
// options the trace has capacity zero (recording off); the metrics
// registry always exists so components can register unconditionally.
func NewEnv(opts ...EnvOption) *Env {
	e := &Env{
		trace:   NewTrace(0),
		metrics: NewMetrics(),
		yield:   make(chan yieldMsg),
		horizon: maxTime,
		noFast:  FastPathsDisabled(),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Trace returns the environment's event trace.
func (e *Env) Trace() *Trace { return e.trace }

// Metrics returns the environment's metrics registry.
func (e *Env) Metrics() *Metrics { return e.metrics }

// SetTrace replaces the environment's trace (e.g. to bound its capacity or
// enable recording). A nil trace disables recording entirely.
func (e *Env) SetTrace(t *Trace) {
	if t == nil {
		t = NewTrace(0)
	}
	e.trace = t
}

// SetTraceCap replaces the trace with a fresh one bounded at capacity
// events. Previously recorded events are discarded.
func (e *Env) SetTraceCap(capacity int) { e.trace = NewTrace(capacity) }

// Emit records ev in the trace, stamping it with the current virtual time.
// When tracing is disabled this is a single branch; callers on hot paths
// may still want to guard expensive payload construction with
// Trace().Enabled().
func (e *Env) Emit(ev Event) {
	if !e.trace.Enabled() {
		return
	}
	ev.At = e.now
	e.trace.Add(ev)
}

// Report assembles the environment's observability data: the final metrics
// snapshot plus the recorded event trace.
func (e *Env) Report() Report {
	return Report{
		Metrics: e.metrics.Snapshot(),
		Events:  e.trace.Events(),
		Dropped: e.trace.Dropped(),
	}
}

// event is a scheduled resumption of a process, or a timer expiry when
// timer is non-nil. A phantom event is the replay cursor of a parked phase
// member (see domain.go): dispatching it replays the member's recorded
// sleep trajectory through the queue instead of resuming the goroutine.
type event struct {
	at      Time
	seq     uint64
	proc    *Proc
	timer   *Timer
	phantom bool
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically with all other processes in the same Env. All methods
// must be called from within the process's own body function.
type Proc struct {
	env    *Env
	name   string
	state  procState
	resume chan struct{}
	body   func(*Proc)
	daemon bool

	// waitOn is the condition this process is blocked on, if any.
	waitOn *Cond

	// Conservative run-ahead state (see domain.go). domain and
	// computeDepth are maintained by BeginCompute/EndCompute whether or
	// not run-ahead is armed; the rest is live only while inPhase.
	domain       int
	computeDepth int
	inPhase      bool
	phaseBarred  bool      // parked at a sync point; sequential until the next compute window
	phaseDone    bool      // body returned in-phase; retire after the trajectory replays
	pNow         Time      // private clock while running as a phase member
	pHorizon     Time      // conservative bound on pNow for this phase
	pStrict      Time      // no-slack bound: in-phase TrySleepInPlace may not cross it
	phaseIdx     int       // member index within the current phase
	traj         []Time    // private-clock sleep targets recorded this phase, for deferred replay
	cursor       int       // replay position within traj
	phaseCmd     chan bool // scheduler's round decision for a horizon-parked member: extend or join
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// SetDaemon flips the process's daemon flag at runtime. Service loops that
// alternate between idling for work (daemon: an idle engine is not a
// deadlock) and executing a task on behalf of a client (non-daemon: a task
// stuck mid-protocol must surface in Deadlocked) toggle this around the
// task-execution window.
func (p *Proc) SetDaemon(v bool) { p.daemon = v }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time: the process's private clock while
// it runs as a phase member, the shared clock otherwise.
func (p *Proc) Now() Time {
	if p.inPhase {
		return p.pNow
	}
	return p.env.now
}

// Spawn registers a new process that starts at the current virtual time.
// The body runs on its own goroutine but only while the scheduler has
// granted it control. Spawn may be called before Run or from inside a
// running process.
func (e *Env) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		state:  stateNew,
		resume: make(chan struct{}),
		body:   body,
	}
	e.procs = append(e.procs, p)
	e.running++
	e.schedule(p, e.now)
	return p
}

// SpawnDaemon registers a service process (device engine, scheduler loop)
// that is expected to idle forever waiting for work. Daemons are excluded
// from Deadlocked reports.
func (e *Env) SpawnDaemon(name string, body func(*Proc)) *Proc {
	p := e.Spawn(name, body)
	p.daemon = true
	return p
}

// schedule enqueues a resumption of p at time t.
func (e *Env) schedule(p *Proc, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q in the past (%v < %v)", p.name, t, e.now))
	}
	e.seq++
	e.queue.Push(event{at: t, seq: e.seq, proc: p})
	if p.state != stateNew {
		p.state = stateRunnable
	}
}

// yieldMsg is the token a process hands back to the scheduler when it
// cedes control (by sleeping, waiting, or finishing).
type yieldMsg struct{}

// run starts or resumes a process and waits until it yields or finishes.
func (e *Env) step(ev event) {
	p := ev.proc
	if p.state == stateDone {
		return
	}
	// A process can have stale queue entries (e.g. it was woken by Signal
	// before its Sleep timer fired). Only the entry that matches a
	// runnable/new process may run; others are dropped by the state check
	// in the callers that enqueue them. Here we simply run whatever is
	// runnable.
	if p.state == stateBlocked {
		return // stale timer for a process that re-blocked
	}
	e.now = ev.at
	p.state = stateRunning
	if p.body != nil {
		body := p.body
		p.body = nil
		go func() {
			defer func() {
				r := recover()
				if p.inPhase {
					// The body finished while running as a phase member;
					// nobody is listening on e.yield until the phase joins.
					// Report through the member's park slot instead and let
					// the join do the state/running bookkeeping.
					p.inPhase = false
					e.phaseMsgs[p.phaseIdx] = parkMsg{kind: parkDone, pos: p.pNow, panicV: r}
					e.phaseWG.Done()
					return
				}
				if r != nil {
					e.panicV = r
				}
				p.state = stateDone
				e.running--
				e.yield <- yieldMsg{}
			}()
			<-p.resume
			body(p)
		}()
	}
	p.resume <- struct{}{}
	<-e.yield
	if e.panicV != nil {
		v := e.panicV
		e.panicV = nil
		panic(v)
	}
}

// dispatch routes one popped event: timer expiries run their callback in
// the scheduler's context; process resumptions go through step. A stopped
// timer is skipped without advancing the clock, so canceled timeouts never
// stretch the simulated end time.
func (e *Env) dispatch(ev event) {
	if ev.timer != nil {
		t := ev.timer
		if t.stopped {
			return
		}
		e.now = ev.at
		t.fired = true
		t.fn()
		return
	}
	if ev.phantom {
		e.replayStep(ev)
		return
	}
	e.step(ev)
}

// Run processes events until the queue is empty. It returns the final
// virtual time. If processes remain blocked on conditions that nothing can
// signal, Run returns anyway (the processes are abandoned); use Deadlocked
// to inspect that state.
func (e *Env) Run() Time {
	e.horizon = maxTime
	for e.queue.Len() > 0 {
		if e.simPar && e.tryPhase() {
			continue
		}
		e.dispatch(e.queue.Pop())
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline and then stops,
// setting the clock to the deadline if it ran dry earlier.
func (e *Env) RunUntil(deadline Time) Time {
	e.horizon = deadline
	for e.queue.Len() > 0 && e.queue.Head().at <= deadline {
		if e.simPar && e.tryPhase() {
			continue
		}
		e.dispatch(e.queue.Pop())
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Timer is a pending AfterFunc callback. Stop cancels it; a stopped timer
// is skipped by the event loop without advancing the virtual clock.
type Timer struct {
	fn      func()
	stopped bool
	fired   bool
}

// Stop cancels the timer, reporting whether it was still pending. Stopping
// an already-fired or already-stopped timer is a no-op returning false.
func (t *Timer) Stop() bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// AfterFunc schedules fn to run once, d from now, in the scheduler's
// context (fn may Signal conditions, schedule processes, or Spawn, but has
// no process of its own and must not sleep). The returned Timer cancels
// the callback via Stop.
func (e *Env) AfterFunc(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{fn: fn}
	e.seq++
	e.queue.Push(event{at: e.now.Add(d), seq: e.seq, timer: t})
	return t
}

// Deadlocked reports the names of processes that are still blocked after
// Run returned. An empty result means every process ran to completion.
func (e *Env) Deadlocked() []string {
	var stuck []string
	for _, p := range e.procs {
		if p.state == stateBlocked && !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	sort.Strings(stuck)
	return stuck
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (a pure yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	if p.inPhase {
		// Phase member: advance the private clock without touching the
		// shared queue, recording the target so the join can replay this
		// trajectory through the real queue with the exact sequence numbers
		// the sequential engine would have assigned (see domain.go).
		// Crossing the horizon parks the member; the scheduler then either
		// extends the phase with a horizon that covers the target (the
		// member resumes in-phase) or joins the phase (the member resumes
		// sequentially with the shared clock at the sleep target). Filling
		// the trajectory's last slot parks it the same way, and the
		// scheduler never extends a full member.
		t := p.pNow.Add(d)
		p.traj = append(p.traj, t)
		if (t <= p.pHorizon && len(p.traj) < cap(p.traj)) || p.phaseWaitSleep(t) {
			p.pNow = t
		}
		return
	}
	e := p.env
	t := e.now.Add(d)
	// Fast path: if no other event can possibly run before t (the queue is
	// empty, or its earliest event is strictly later — a tie would win on
	// seq), handing control to the scheduler would immediately hand it
	// back to this process with the clock at t. Skip the two channel
	// round-trips and advance the clock in place. Observable behavior —
	// event order, virtual timestamps, metrics, traces — is identical; a
	// running process is never in the queue, so nothing else can observe
	// the intermediate state. The horizon check keeps RunUntil exact: a
	// sleep crossing the deadline must park in the queue so the loop stops.
	if !e.noFast && t <= e.horizon {
		if h := e.queue.Head(); h == nil || t < h.at {
			e.now = t
			return
		}
	}
	e.schedule(p, t)
	p.state = stateRunnable
	e.yield <- yieldMsg{}
	<-p.resume
}

// Yield cedes control so that other processes scheduled at the current
// time can run before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// SchedSeq returns the scheduler's event sequence counter. It increments
// every time anything is enqueued — another process scheduled, a timer
// armed, or this process itself parking in the queue — so an unchanged
// value across a stretch of work proves nothing else ran and the clock
// only advanced via in-place sleeps. The superblock executor uses this to
// detect (and bail out of) block execution when a fetch stall yields.
func (e *Env) SchedSeq() uint64 { return e.seq }

// TrySleepInPlace advances the clock by d if and only if the Sleep fast
// path would apply — no queued event could run before the target time and
// the RunUntil horizon is not crossed. It reports whether the advance
// happened; on false the clock is untouched and the caller must fall back
// to per-step Sleep calls. This lets a batch executor charge one merged
// duration exactly when each constituent Sleep would also have taken the
// in-place path, i.e. when merging is observationally invisible.
func (p *Proc) TrySleepInPlace(d Duration) bool {
	if d < 0 {
		d = 0
	}
	if p.inPhase {
		// The strict no-slack bound guarantees every constituent Sleep
		// would take the sequential in-place fast path at replay time too,
		// so an in-phase merge happens exactly when the sequential engine
		// would also have merged (and consumed no sequence numbers). Beyond
		// it, or with one trajectory slot left, the caller falls back to
		// per-step Sleeps, which record or park individually.
		t := p.pNow.Add(d)
		if t <= p.pStrict && len(p.traj) < cap(p.traj)-1 {
			p.traj = append(p.traj, t)
			p.pNow = t
			return true
		}
		return false
	}
	e := p.env
	t := e.now.Add(d)
	if !e.noFast && t <= e.horizon {
		if h := e.queue.Head(); h == nil || t < h.at {
			e.now = t
			return true
		}
	}
	return false
}

// Cond is a waitable condition. Processes block on it with Proc.Wait and
// are released in FIFO order by Signal or Broadcast. Unlike sync.Cond there
// is no associated lock: the simulation's single-runner guarantee makes
// explicit locking unnecessary.
type Cond struct {
	env     *Env
	name    string
	waiters []*Proc
}

// NewCond creates a condition bound to the environment.
func (e *Env) NewCond(name string) *Cond {
	return &Cond{env: e, name: name}
}

// Wait blocks the process until the condition is signaled.
func (p *Proc) Wait(c *Cond) {
	if c.env != p.env {
		panic("sim: Wait on a Cond from a different Env")
	}
	p.PhaseSync() // conditions are shared state; a phase member parks first
	c.waiters = append(c.waiters, p)
	p.state = stateBlocked
	p.waitOn = c
	p.env.yield <- yieldMsg{}
	<-p.resume
	p.waitOn = nil
}

// WaitFor blocks until pred() is true, re-checking each time the condition
// is signaled. The predicate is evaluated before the first wait, so a
// condition that is already true never blocks.
func (p *Proc) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		p.Wait(c)
	}
}

// WaitForTimeout is WaitFor with a deadline: it blocks until pred() is
// true (returning true) or until d of virtual time has passed without the
// predicate becoming true (returning false). On the success path the
// internal timer is stopped, so a satisfied wait never stretches the
// simulation's end time.
func (p *Proc) WaitForTimeout(c *Cond, d Duration, pred func() bool) bool {
	p.PhaseSync() // both pred and AfterFunc touch shared state
	if pred() {
		return true
	}
	timedOut := false
	t := p.env.AfterFunc(d, func() {
		// Only interrupt the wait if the process is still parked on the
		// condition; if a Signal got there first this expiry is moot.
		if c.remove(p) {
			timedOut = true
			p.env.schedule(p, p.env.now)
		}
	})
	for {
		p.Wait(c)
		if pred() {
			t.Stop()
			return true
		}
		if timedOut {
			return false
		}
	}
}

// Signal wakes the longest-waiting process, if any. The woken process is
// scheduled at the current time, after events already queued for now.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.env.schedule(p, c.env.now)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		c.env.schedule(p, c.env.now)
	}
}

// Waiters returns the number of processes currently blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }

// remove takes p off the wait list without scheduling it, reporting
// whether it was present (the timeout path of WaitForTimeout).
func (c *Cond) remove(p *Proc) bool {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}
