package sim

import (
	"fmt"
	"math"
	"os"
	"runtime"
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
// Exactly one goroutine holds the baton at a time: Run's goroutine or one
// process's. A process that cedes control (a Sleep that must queue, a
// Wait, or its body returning) runs the event loop on its own goroutine:
// it fires due timers and advances phantom replays inline, then resumes
// the next process directly, one goroutine switch, or keeps running with
// no switch when the next resumption is its own. A board process the loop
// pops may run ahead in a window (domain.go), still as the one goroutine
// holding the baton. The baton goes back to Run's goroutine only for the
// RunUntil deadline, an empty queue, or a panic to re-raise. The queue
// alone orders events, so the simulation is fully deterministic despite
// being built from goroutines.
//
// Run leaves the goroutine of every process that has not finished parked
// on its resume channel, and a parked goroutine keeps the whole machine
// reachable. Close ends them once the caller is done with the Env.
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
	yield   chan any // returns the baton to Run's goroutine, carrying a panic to re-raise or nil
	closed  bool     // Close has run: a ceding process ends its goroutine instead

	statHandoffs uint64 // goroutine switches the baton took (see EngineStats.Handoffs)

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
		yield:   make(chan any),
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
// the queue instead of resuming the goroutine.
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
// The body runs on its own goroutine but only while that goroutine holds
// the baton. Spawn may be called before Run or from inside a running
// process.
func (e *Env) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		state:  stateNew,
		resume: make(chan struct{}),
		body:   body,
	}
	e.procs = append(e.procs, p)
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
			if t := ev.timer; !t.stopped {
				e.now = ev.at
				t.fired = true
				t.fn()
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

// resume hands the baton to p, starting its goroutine on its first
// resumption.
func (e *Env) resume(p *Proc) {
	e.statHandoffs++
	if p.body == nil {
		p.resume <- struct{}{}
		return
	}
	body := p.body
	p.body = nil
	go func() {
		defer p.exit()
		body(p)
	}()
}

// pass hands the baton on from the goroutine of self, a process that has
// just queued itself, blocked, or (self == nil) finished. It runs the
// event loop here and resumes the next process directly, or returns the
// baton to Run's goroutine, carrying any panic a timer callback raised.
// It reports whether the next process is self, which then keeps running
// with no goroutine switch; otherwise a live self must wait on its resume
// channel.
func (e *Env) pass(self *Proc) bool {
	next, v := e.nextContained()
	switch {
	case next == nil:
		e.statHandoffs++
		e.yield <- v
	case next == self:
		return true
	default:
		e.resume(next)
	}
	return false
}

// nextContained is next with a panic recovered, so a timer callback that
// panics on a process goroutine surfaces from Run: never inside the
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

// exit, deferred by every process goroutine, retires the process when its
// body returns or panics and passes the baton on. A panic goes straight
// back to Run's goroutine to be re-raised. A body that returns inside its
// run-ahead window retires through the replay instead, so its last sleeps
// still consume the sequence numbers they would have sequentially. A
// process Close stopped only acknowledges, leaving the baton with Close.
func (p *Proc) exit() {
	r := recover()
	e := p.env
	if e.closed {
		e.yield <- r
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
		e.yield <- r
		return
	}
	e.pass(nil)
}

// cede passes the baton on from the running process and returns once the
// process is resumed. On a closed Env it ends the goroutine instead: the
// resumption was Close's stop signal, or the caller is a deferred call of
// a stopped process, which must not run the event loop.
func (p *Proc) cede() {
	if !p.env.closed && !p.env.pass(p) {
		<-p.resume
	}
	if p.env.closed {
		runtime.Goexit()
	}
}

// Close ends the goroutine of every process still parked after Run or
// RunUntil returned, so a machine nobody references any more becomes
// garbage. Each goroutine is resumed in turn with the stop signal and
// unwinds through runtime.Goexit; its deferred calls run, and any of them
// that would sleep, wait or otherwise cede ends the goroutine there, so
// none advances the clock, runs the event loop or resumes another
// process. A process that never started has no goroutine to end.
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
		if p.body != nil || p.state == stateDone || p.doneInWindow {
			continue // no goroutine, or one that has already ended
		}
		p.resume <- struct{}{}
		if v := <-e.yield; v != nil {
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

// drive is Run's goroutine's side of the baton: it resumes the next
// process and waits for the baton to come back.
func (e *Env) drive() {
	if e.closed {
		panic("sim: Run on a closed Env")
	}
	for p := e.next(); p != nil; p = e.next() {
		e.resume(p)
		if v := <-e.yield; v != nil {
			panic(v)
		}
	}
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

// AfterFunc schedules fn to run once, d from now, on whichever goroutine
// holds the baton when its event comes up (fn may Signal conditions,
// schedule processes, or Spawn, but has no process of its own and must not
// sleep). The returned Timer cancels the callback via Stop.
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
