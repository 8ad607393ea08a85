package sim

import (
	"fmt"
	"iter"
	"math"
	"os"
	"sort"
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
// Each process body runs as a coroutine (iter.Pull), and exactly one
// holds the baton at a time: Run's goroutine or one process's coroutine.
// A process that cedes control (a Sleep that must queue, a Wait, or its
// body returning) runs the event loop on its own coroutine: it fires due
// timers and advances phantom replays inline, then keeps running with no
// switch when the next resumption is its own. Otherwise it leaves the
// next process on the Env and yields to Run's goroutine, which resumes
// it. A coroutine switch passes straight from one goroutine to another
// without the Go scheduler, so those two switches cost less than one
// channel handoff. A board process the loop pops may run ahead in a
// window (domain.go), still as the one coroutine holding the baton. The
// queue alone orders events, so the simulation is fully deterministic
// despite being built from goroutines.
//
// Run leaves the coroutine of every process that has not finished parked
// in its yield, and a parked coroutine keeps the whole machine reachable.
// Close ends them once the caller is done with the Env.
type Env struct {
	now   Time
	seq   uint64
	queue eventQueue
	procs []*Proc

	// horizon bounds the in-place Sleep fast path: RunUntil sets it to its
	// deadline so a fast-forwarding process cannot advance the clock past
	// the point where the event loop must stop. Run resets it to maxTime.
	horizon Time
	noFast  bool // FLICKSIM_NOPREDECODE: force every Sleep through the queue

	trace   *Trace
	metrics *Metrics
	handoff *Proc // the process a yielding coroutine leaves the baton to; nil for Run's goroutine
	panicV  any   // a panic a process or timer raised, for drive or Close to re-raise
	closed  bool  // Close has run: a ceding process unwinds instead

	statHandoffs uint64 // resumptions and returns to Run (see EngineStats.Handoffs)
	statTimers   uint64 // timer callbacks run (see EngineStats.Timers)

	// timers is the unused tail of the chunk AfterFunc hands its Timers
	// out of, so arming a timer allocates one chunk per timerChunk timers.
	timers []Timer

	// Conservative run-ahead (see domain.go). All zero until EnableRunAhead
	// arms it; unarmed, the event loop consults nothing here beyond the
	// single e.runAhead branch.
	runAhead         bool
	domains          int
	lookahead        Duration
	statWindows      uint64
	statHorizonWaits uint64
	statParkedEmits  uint64
}

// maxTime is the largest representable virtual time, used as the "no
// deadline" horizon for the Sleep fast path.
const maxTime = Time(math.MaxInt64)

// NewEnv creates an empty simulation environment at time zero. The trace
// has capacity zero (recording off) until SetTraceCap sizes it; the
// metrics registry always exists so components can register
// unconditionally.
func NewEnv() *Env {
	return &Env{
		trace:   NewTrace(0),
		metrics: NewMetrics(),
		horizon: maxTime,
		noFast:  FastPathsDisabled(),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Trace returns the environment's event trace.
func (e *Env) Trace() *Trace { return e.trace }

// Metrics returns the environment's metrics registry.
func (e *Env) Metrics() *Metrics { return e.metrics }

// SetTraceCap replaces the trace with a fresh one bounded at capacity
// events: 0 disables recording, and events past the bound are counted as
// drops, never silently lost. Previously recorded events are discarded.
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
// timer is non-nil. A phantom event is the replay cursor of a process's
// run-ahead window, queued when the window opens (see domain.go):
// dispatching it replays the window's recorded sleep trajectory through
// the queue instead of resuming the process.
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

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically with all other processes in the same Env. All methods
// must be called from within the process's own body function.
type Proc struct {
	env    *Env
	name   string
	state  procState
	body   func(*Proc) // until the first resumption starts the coroutine
	daemon bool

	// The process's coroutine, made by iter.Pull on its first resumption.
	// Only drive and Close, outside every coroutine, call next and stop;
	// only the coroutine itself calls yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// waitOn is the condition this process is blocked on, if any.
	waitOn *Cond

	// Conservative run-ahead state (see domain.go). domain and
	// computeDepth are maintained by BeginCompute/EndCompute whether or
	// not run-ahead is armed; pNow and pHorizon are live only while
	// inWindow, traj and cursor until the replay has run out.
	domain       int
	computeDepth int
	inWindow     bool   // running ahead in a window on the private clock
	barred       bool   // stopped at a sync point; sequential until the next compute window
	doneInWindow bool   // body returned in its window; retire after the trajectory replays
	pNow         Time   // private clock while in a window
	pHorizon     Time   // conservative bound on pNow for this window
	traj         []Time // private-clock sleep targets recorded this window, for deferred replay
	cursor       int    // replay position within traj
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
// it runs ahead in a window, the shared clock otherwise.
func (p *Proc) Now() Time {
	if p.inWindow {
		return p.pNow
	}
	return p.env.now
}

// Spawn registers a new process that starts at the current virtual time.
// The body runs as its own coroutine but only while that coroutine holds
// the baton. Spawn may be called before Run or from inside a running
// process.
func (e *Env) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		env:   e,
		name:  name,
		state: stateNew,
		body:  body,
	}
	e.procs = append(e.procs, p)
	e.schedule(p, e.now)
	return p
}

// SpawnDaemon registers a service process (a scheduler loop, say)
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

// next is the event loop, run by whichever goroutine holds the baton. It
// pops and runs queued events inline — timer callbacks, phantom replay
// steps, stale entries of blocked or finished processes — until the head
// is a process to resume, which it returns marked running with the clock
// at its wake time, in a run-ahead window if one opens for it. It returns
// nil, popping nothing more, when only Run's goroutine may go on: the
// queue is empty or the head lies past the RunUntil deadline. A stopped
// timer is skipped without advancing the clock, so canceled timeouts never
// stretch the simulated end time.
func (e *Env) next() *Proc {
	for {
		h := e.queue.Head()
		if h == nil || h.at > e.horizon {
			return nil
		}
		ev := e.queue.Pop()
		switch {
		case ev.timer != nil:
			t := ev.timer
			t.queued = false
			if fn := t.fn; fn != nil {
				e.now = ev.at
				t.fn = nil
				e.statTimers++
				fn()
			}
		case ev.phantom:
			if p := e.replayStep(ev); p != nil {
				return p
			}
		default:
			// A process can have stale queue entries; only a runnable or
			// new one may run.
			if p := ev.proc; p.state != stateDone && p.state != stateBlocked {
				e.now = ev.at
				if e.runAhead && p.tagged() {
					e.openWindow(ev)
				}
				p.state = stateRunning
				return p
			}
		}
	}
}

// resume runs p's coroutine until it yields the baton back, creating the
// coroutine on p's first resumption. Only drive, on Run's goroutine, calls
// it.
func (e *Env) resume(p *Proc) {
	e.statHandoffs++
	if p.next == nil {
		body := p.body
		p.body = nil
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.exit()
			body(p)
		})
	}
	p.next()
}

// pass hands the baton on from the coroutine of self, a process that has
// just queued itself, blocked, or (self == nil) finished. It runs the
// event loop here and reports whether the next process is self, which
// then keeps running with no switch. Otherwise it leaves the next process
// on the Env for drive to resume, or nil and any panic a timer callback
// raised to return the baton to Run's goroutine, and the caller yields.
func (e *Env) pass(self *Proc) bool {
	next, v := e.nextContained()
	switch {
	case next == nil:
		e.statHandoffs++
		e.panicV = v
	case next == self:
		return true
	}
	e.handoff = next
	return false
}

// nextContained is next with a panic recovered, so a timer callback that
// panics on a process coroutine surfaces from Run: never inside the
// process's body, which might recover it, and never, once the body has
// returned and exit is already running, as a crash of the whole program.
func (e *Env) nextContained() (next *Proc, panicV any) {
	defer func() {
		if r := recover(); r != nil {
			next, panicV = nil, r
		}
	}()
	return e.next(), nil
}

// stopped is the sentinel a process stopped by Close unwinds with.
type stopped struct{}

// exit, deferred by every process coroutine, retires the process when its
// body returns or panics and passes the baton on. A panic goes straight
// back to Run's goroutine to be re-raised. A body that returns inside its
// run-ahead window retires through the replay instead, so its last sleeps
// still consume the sequence numbers they would have sequentially. A
// process Close stopped only leaves a real panic from its deferred calls
// for Close to re-raise.
func (p *Proc) exit() {
	r := recover()
	e := p.env
	if e.closed {
		if _, ok := r.(stopped); !ok {
			e.panicV = r
		}
		return
	}
	if p.inWindow && r == nil {
		p.doneInWindow = true
		p.leaveWindow()
		e.pass(nil)
		return
	}
	p.inWindow = false
	p.state = stateDone
	if r != nil {
		e.statHandoffs++
		e.handoff, e.panicV = nil, r
		return
	}
	e.pass(nil)
}

// cede passes the baton on from the running process and returns once the
// process is resumed. A process Close stopped finds its yield returning
// false and unwinds with the stopped sentinel; on a closed Env a deferred
// call that would cede again finds yield returning false at once, so it
// never runs the event loop.
func (p *Proc) cede() {
	if !p.env.closed && p.env.pass(p) {
		return
	}
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Close ends the coroutine of every process still parked after Run or
// RunUntil returned, so a machine nobody references any more becomes
// garbage. It stops each coroutine in turn: the pending yield returns
// false, and the process unwinds with a private sentinel panic that exit
// recovers. Its deferred calls run, and any of them that would sleep,
// wait or otherwise cede unwinds there with the sentinel again, so none
// advances the clock, runs the event loop or resumes another process. A
// real panic from a deferred call is re-raised here. A process that never
// started has no coroutine to end.
//
// Read everything the run produced (Report, Deadlocked, the model's own
// state) before Close: the deferred calls may still touch it. Close must
// be called from outside the simulation, never from a process; it is
// idempotent, and Run and RunUntil panic once it has run.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.horizon = -1 // no deferred Sleep can advance the clock in place
	for _, p := range e.procs {
		if p.stop == nil {
			continue // never started
		}
		p.stop() // a no-op for a coroutine that has already ended
		if v := e.panicV; v != nil {
			e.panicV = nil
			panic(v)
		}
	}
}

// Run processes events until the queue is empty. It returns the final
// virtual time. If processes remain blocked on conditions that nothing can
// signal, Run returns anyway (the processes are abandoned); use Deadlocked
// to inspect that state.
func (e *Env) Run() Time {
	e.horizon = maxTime
	e.drive()
	return e.now
}

// RunUntil processes events with timestamps <= deadline and then stops,
// setting the clock to the deadline if it ran dry earlier.
func (e *Env) RunUntil(deadline Time) Time {
	e.horizon = deadline
	e.drive()
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// drive is Run's goroutine's side of the baton: it resumes each process a
// yielding coroutine leaves on the Env, re-raising any panic it brings
// back, until one returns the baton to Run.
func (e *Env) drive() {
	if e.closed {
		panic("sim: Run on a closed Env")
	}
	for p := e.next(); p != nil; p = e.handoff {
		e.resume(p)
		if v := e.panicV; v != nil {
			e.panicV = nil
			panic(v)
		}
	}
}

// Timer is a pending AfterFunc or Arm callback. Stop cancels it; a
// stopped timer is skipped by the event loop without advancing the
// virtual clock.
//
// AfterFunc carves its Timers out of chunks of timerChunk, so a chunk
// stays live as long as any one of its timers is referenced: by the queue
// while pending, or by whoever kept the *Timer. A timer lets go of its
// callback once it fires or stops, so a retained chunk keeps no
// callback's captures alive. A model that fires a timer over and over
// owns one and re-arms it with Arm, which allocates nothing.
type Timer struct {
	fn     func() // the pending callback; nil once fired or stopped
	queued bool   // an entry for this timer is in the queue
}

// Stop cancels the timer, reporting whether it was still pending. Stopping
// an already-fired or already-stopped timer is a no-op returning false.
func (t *Timer) Stop() bool {
	if t.fn == nil {
		return false
	}
	t.fn = nil
	return true
}

// timerChunk is how many Timers AfterFunc allocates at a time.
const timerChunk = 64

// AfterFunc schedules fn to run once, d from now, on whichever goroutine
// holds the baton when its event comes up (fn may Signal conditions,
// schedule processes, or Spawn, but has no process of its own and must not
// sleep). The returned Timer cancels the callback via Stop.
func (e *Env) AfterFunc(d Duration, fn func()) *Timer {
	if len(e.timers) == 0 {
		e.timers = make([]Timer, timerChunk)
	}
	t := &e.timers[0]
	e.timers = e.timers[1:]
	e.Arm(t, d, fn)
	return t
}

// Arm schedules fn to run once on t, d from now, as AfterFunc does on a
// Timer of its own. t must have no entry left in the queue: Arm panics on
// a pending timer, and on one stopped before its expiry came up, whose
// stale entry would otherwise run the new callback early.
func (e *Env) Arm(t *Timer, d Duration, fn func()) {
	if t.queued {
		panic("sim: Arm on a timer that is still queued")
	}
	if d < 0 {
		d = 0
	}
	t.fn, t.queued = fn, true
	e.seq++
	e.queue.Push(event{at: e.now.Add(d), seq: e.seq, timer: t})
}

// Deadlocked reports the processes that are still blocked after Run
// returned, each as "<proc> on <cond>", sorted. An empty result means
// every process ran to completion.
func (e *Env) Deadlocked() []string {
	var stuck []string
	for _, p := range e.procs {
		if p.state == stateBlocked && !p.daemon {
			stuck = append(stuck, p.name+" on "+p.waitOn.name)
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
	if p.inWindow {
		// Run-ahead window: advance the private clock without touching the
		// shared queue, recording the target so the replay can push this
		// trajectory through the real queue with the exact sequence
		// numbers the sequential engine would have assigned (see
		// domain.go). A target past the horizon, or one filling the
		// trajectory's last slot, ends the window; the process resumes
		// sequentially once the replay leaves the shared clock at the
		// target.
		t := p.pNow.Add(d)
		p.traj = append(p.traj, t)
		if t <= p.pHorizon && len(p.traj) < cap(p.traj) {
			p.pNow = t
			return
		}
		p.env.statHorizonWaits++
		p.endWindow()
		return
	}
	e := p.env
	t := e.now.Add(d)
	if e.advanceInPlace(t) {
		return
	}
	e.schedule(p, t)
	p.cede()
}

// advanceInPlace moves the clock to t and reports true when a sleep to t
// may skip the queue: no queued event can run first (the queue is empty or
// its head is strictly later; a tie must queue so the queued event's seq
// wins), so passing the baton on would only pop the sleeper's own entry
// straight back, and nothing can observe the skipped push and pop. The
// horizon keeps RunUntil exact, and the reference engine never skips.
// Sleep, TrySleepInPlace and the replay all apply this one rule, on which
// byte-identity between the engines rests; it must stay small enough to
// inline into Sleep, the interpreter's per-instruction path.
func (e *Env) advanceInPlace(t Time) bool {
	if e.noFast || t > e.horizon {
		return false
	}
	if h := e.queue.Head(); h != nil && t >= h.at {
		return false
	}
	e.now = t
	return true
}

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
// in-place path, i.e. when merging is observationally invisible. In a
// run-ahead window it always declines: the window records every per-step
// Sleep for its replay (see domain.go).
func (p *Proc) TrySleepInPlace(d Duration) bool {
	if p.inWindow {
		return false
	}
	if d < 0 {
		d = 0
	}
	return p.env.advanceInPlace(p.env.now.Add(d))
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
	p.Sync() // conditions are shared state; a run-ahead window ends first
	c.waiters = append(c.waiters, p)
	p.state = stateBlocked
	p.waitOn = c
	p.cede()
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
	p.Sync() // both pred and AfterFunc touch shared state
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
	if len(c.waiters) == 1 {
		// Rewind rather than re-slice past the last waiter, which would
		// leave zero capacity and make the next Wait allocate.
		c.waiters = c.waiters[:0]
	} else {
		c.waiters = c.waiters[1:]
	}
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
