package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// schedStep is one pre-drawn action of a synthetic board process. Every
// random decision is drawn before the run starts so the sequential and
// run-ahead engines replay the identical schedule.
type schedStep struct {
	sleep Duration
	merge bool // charge the sleep as the superblock executor charges a block: merged, or per step
	emit  bool // emit a trace event after the sleep (a sync point when traced)
	sync  bool // end the window at a synchronization point after the sleep
	drop  bool // close and reopen the compute window (EndCompute/BeginCompute)
}

// crossSchedule is a full pre-drawn workload: per-board step lists, which
// boards' bodies return inside their compute window, an untagged host
// process's sleep list, and a set of timer firings.
type crossSchedule struct {
	boards [][]schedStep
	open   []bool // the board's body returns without closing its compute window
	host   []Duration
	timers []Duration
}

// drawCrossSchedule derives a workload from the seed. Durations are chosen
// around the lookahead scale so windows open, horizons bind, and windows
// end at ties as well as in the open interior.
func drawCrossSchedule(seed int64, domains int, lookahead Duration) crossSchedule {
	rng := rand.New(rand.NewSource(seed))
	dur := func() Duration {
		// Mix sub-lookahead, near-lookahead, and multi-lookahead sleeps,
		// including exact multiples to provoke same-instant ties.
		switch rng.Intn(4) {
		case 0:
			return Duration(rng.Int63n(int64(lookahead)/2 + 1))
		case 1:
			return lookahead + Duration(rng.Int63n(int64(lookahead)+1)) - lookahead/2
		case 2:
			return Duration(rng.Intn(4)) * lookahead
		default:
			return Duration(rng.Int63n(4*int64(lookahead)) + 1)
		}
	}
	s := crossSchedule{boards: make([][]schedStep, domains), open: make([]bool, domains)}
	for d := range s.boards {
		n := 4 + rng.Intn(12)
		for i := 0; i < n; i++ {
			s.boards[d] = append(s.boards[d], schedStep{
				sleep: dur(),
				merge: rng.Intn(3) == 0,
				emit:  rng.Intn(3) == 0,
				sync:  rng.Intn(5) == 0,
				drop:  rng.Intn(7) == 0,
			})
		}
		s.open[d] = rng.Intn(3) == 0
	}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		s.host = append(s.host, dur())
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		s.timers = append(s.timers, dur()+1)
	}
	return s
}

// crossResult carries everything a differential comparison cares about:
// the full event trace, the end time, per-board private-clock checksums
// (each board folds every post-sleep Proc.Now() into its own slot, so the
// member clock is checked even on steps that never touch the shared
// engine), and the engine statistics.
type crossResult struct {
	events []Event
	end    Time
	clocks []uint64
	stats  EngineStats
	env    *Env
}

// runCrossSchedule executes the schedule on a fresh environment, with
// run-ahead armed or not.
func runCrossSchedule(s crossSchedule, lookahead Duration, par bool) crossResult {
	env := NewEnv()
	env.SetTraceCap(1 << 14)
	if par {
		env.EnableRunAhead(len(s.boards), lookahead)
	}
	clocks := make([]uint64, len(s.boards))
	for d := range s.boards {
		d := d
		steps := s.boards[d]
		open := d < len(s.open) && s.open[d]
		env.Spawn(fmt.Sprintf("board%d", d), func(p *Proc) {
			p.BeginCompute(d + 1)
			for i, st := range steps {
				if !st.merge {
					p.Sleep(st.sleep)
				} else if !p.TrySleepInPlace(st.sleep) {
					// The superblock executor's fallback: the per-step
					// sleeps the merged one stands for.
					p.Sleep(st.sleep / 2)
					p.Sleep(st.sleep - st.sleep/2)
				}
				// FNV-style fold of the clock observations.
				clocks[d] = (clocks[d] ^ uint64(p.Now())) * 1099511628211
				if st.emit {
					p.Emit(Event{Comp: fmt.Sprintf("board%d", d), Kind: KindSched, Aux: uint64(i)})
				}
				if st.sync {
					p.Sync()
					p.Emit(Event{Comp: fmt.Sprintf("board%d", d), Kind: KindIRQ, Aux: uint64(i)})
				}
				if st.drop {
					p.EndCompute()
					p.Emit(Event{Comp: fmt.Sprintf("board%d", d), Kind: KindDMA, Aux: uint64(i)})
					p.BeginCompute(d + 1)
				}
			}
			if !open {
				p.EndCompute()
			}
		})
	}
	env.Spawn("host", func(p *Proc) {
		for i, d := range s.host {
			p.Sleep(d)
			p.Emit(Event{Comp: "host", Kind: KindMigrate, Aux: uint64(i)})
		}
	})
	for i, d := range s.timers {
		i := i
		env.AfterFunc(d, func() {
			env.Emit(Event{Comp: "timer", Kind: KindFault, Aux: uint64(i)})
		})
	}
	end := env.Run()
	return crossResult{events: env.Trace().Events(), end: end, clocks: clocks, stats: env.EngineStats(), env: env}
}

// diffCrossResults compares two runs of the same schedule, reporting the
// first divergence as an error string (empty when identical).
func diffCrossResults(seq, par crossResult) string {
	if seq.end != par.end {
		return fmt.Sprintf("end time %v (par) != %v (seq)", par.end, seq.end)
	}
	for d := range seq.clocks {
		if seq.clocks[d] != par.clocks[d] {
			return fmt.Sprintf("board %d clock checksum %#x (par) != %#x (seq)", d, par.clocks[d], seq.clocks[d])
		}
	}
	if i, ok := eventsEqual(seq.events, par.events); !ok {
		return fmt.Sprintf("trace diverges at event %d:\n  seq: %+v\n  par: %+v", i, seq.events[i], par.events[i])
	}
	return ""
}

func eventsEqual(a, b []Event) (int, bool) {
	if len(a) != len(b) {
		return min(len(a), len(b)), false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// TestSimParDifferentialSynthetic is the engine-level half of the
// determinism contract: across many random cross-domain schedules, the
// run-ahead engine must produce the byte-identical event trace, in the
// identical order, ending at the identical virtual time, as the sequential
// engine. Any conservative-safety violation (a window advancing past an
// event that should have preempted it, a replay re-enqueueing out of
// order) shows up as a trace divergence. With one domain no pending tagged
// event is of another domain, so no window may open at all.
func TestSimParDifferentialSynthetic(t *testing.T) {
	const lookahead = 825 * Nanosecond
	var windows, waits uint64
	for seed := int64(0); seed < 60; seed++ {
		for _, domains := range []int{1, 2, 3, 4} {
			s := drawCrossSchedule(seed, domains, lookahead)
			seq := runCrossSchedule(s, lookahead, false)
			par := runCrossSchedule(s, lookahead, true)
			if domains == 1 && par.stats.Windows != 0 {
				t.Fatalf("seed %d: a one-domain machine opened %d windows", seed, par.stats.Windows)
			}
			windows += par.stats.Windows
			waits += par.stats.HorizonWaits
			if d := diffCrossResults(seq, par); d != "" {
				t.Fatalf("seed %d domains %d: %s", seed, domains, d)
			}
		}
	}
	if windows == 0 {
		t.Fatal("no window ever opened; run-ahead was never exercised")
	}
	if waits == 0 {
		t.Fatal("no window ever ended at its horizon; the lookahead bound was never exercised")
	}
}

// TestSimParInterleavingIndependence re-runs one run-ahead schedule many
// times at GOMAXPROCS 1 and at the host's CPU count. Only the goroutine
// holding the baton runs simulation code, so nothing about how the Go
// scheduler places goroutines on threads may leak into the artifacts; a
// divergence across repetitions would mean it did.
func TestSimParInterleavingIndependence(t *testing.T) {
	const lookahead = 825 * Nanosecond
	s := drawCrossSchedule(7, 4, lookahead)
	ref := runCrossSchedule(s, lookahead, true)
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			got := runCrossSchedule(s, lookahead, true)
			if d := diffCrossResults(ref, got); d != "" {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d run %d: %s", procs, i, d)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSimParHorizonProperty checks a window's horizon and its opening rule
// against an independent brute-force reference over random queue shapes:
// the horizon must sit strictly below every pending untagged, barred or
// same-domain event and strictly below other-domain tagged events plus the
// lookahead, where a phantom cursor counts at the end of its recorded
// trajectory, and may not pass the environment horizon. A window must open
// exactly when that horizon reaches the queue's head, and opening it must
// queue the popped entry as the head again, as the process's phantom.
func TestSimParHorizonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var opened int
	for iter := 0; iter < 500; iter++ {
		e := NewEnv()
		L := Duration(1 + rng.Int63n(2000))
		e.EnableRunAhead(4, L)
		base := Time(rng.Int63n(10_000))

		mkproc := func(domain int, depth int) *Proc {
			return &Proc{env: e, state: stateRunnable, domain: domain, computeDepth: depth,
				barred: rng.Intn(5) == 0}
		}
		// Random pending queue: timers, untagged procs, tagged procs of
		// random domains, and phantom cursors with recorded trajectories.
		// Sequence numbers start at 1: the window's own entry, popped at
		// base, takes 0.
		nq := rng.Intn(8)
		for i := 1; i <= nq; i++ {
			at := base.Add(Duration(rng.Int63n(3 * int64(L))))
			switch rng.Intn(4) {
			case 0:
				e.queue.Push(event{at: at, seq: uint64(i), timer: &Timer{}})
			case 1:
				e.queue.Push(event{at: at, seq: uint64(i), proc: mkproc(0, 0)})
			case 2:
				e.queue.Push(event{at: at, seq: uint64(i), proc: mkproc(1+rng.Intn(4), 1)})
			default:
				p := mkproc(rng.Intn(5), rng.Intn(2))
				for n, t := rng.Intn(4), at; n > 0; n-- {
					t = t.Add(Duration(rng.Int63n(2 * int64(L))))
					p.traj = append(p.traj, t)
				}
				e.queue.Push(event{at: at, seq: uint64(i), proc: p, phantom: true})
			}
		}
		if rng.Intn(4) == 0 {
			e.horizon = base.Add(Duration(rng.Int63n(2 * int64(L))))
		}
		d := 1 + rng.Intn(4)
		var pending []event
		e.queue.forEach(func(q *event) { pending = append(pending, *q) })

		h := e.windowHorizon(d)
		if h > e.horizon {
			t.Fatalf("iter %d: horizon %d above env horizon %d", iter, h, e.horizon)
		}
		want, head := maxTime, maxTime
		for _, q := range pending {
			head = min(head, q.at)
			next, slack := q.at, false
			if q.timer == nil {
				p := q.proc
				if q.phantom && len(p.traj) > 0 {
					next = p.traj[len(p.traj)-1]
				}
				slack = p.computeDepth > 0 && p.domain > 0 && !p.barred && p.domain != d
			}
			if !slack && h >= next {
				t.Fatalf("iter %d: horizon %d reaches an untagged, barred or same-domain entry's code at %d",
					iter, h, next)
			}
			if slack {
				next = next.Add(L)
			}
			want = min(want, next)
		}
		if want = min(want-1, e.horizon); h != want {
			t.Fatalf("iter %d domain %d: horizon %d, reference %d", iter, d, h, want)
		}

		p := &Proc{env: e, state: stateRunning, domain: d, computeDepth: 1}
		e.now = base
		e.openWindow(event{at: base, seq: 0, proc: p})
		if wantOpen := len(pending) > 0 && want >= head; p.inWindow != wantOpen {
			t.Fatalf("iter %d: window open = %v, want %v (horizon %d, head %d)", iter, p.inWindow, wantOpen, want, head)
		}
		if !p.inWindow {
			if e.queue.Len() != len(pending) {
				t.Fatalf("iter %d: a window that did not open queued an entry", iter)
			}
			continue
		}
		opened++
		if p.pHorizon != want || p.pNow != base {
			t.Fatalf("iter %d: window at %d with horizon %d, want %d and %d", iter, p.pNow, p.pHorizon, base, want)
		}
		if q := e.queue.Head(); e.queue.Len() != len(pending)+1 || q.proc != p || !q.phantom || q.at != base || q.seq != 0 {
			t.Fatalf("iter %d: the window's phantom is not the queue's head", iter)
		}
	}
	if opened == 0 {
		t.Fatal("no window ever opened; the opening rule was never exercised")
	}
}

// TestSimParLookaheadFloor pins the regression boundary for the horizon
// math: with the minimum meaningful lookahead (1 ps) a window's horizon
// sits barely past the queue's head, so windows are cut after almost no
// progress — and the differential oracle must still hold there.
func TestSimParLookaheadFloor(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := drawCrossSchedule(seed, 3, 825*Nanosecond)
		seq := runCrossSchedule(s, 825*Nanosecond, false)
		par := runCrossSchedule(s, 1, true)
		if d := diffCrossResults(seq, par); d != "" {
			t.Fatalf("seed %d at 1 ps lookahead: %s", seed, d)
		}
	}
}

// TestEnableSimParRefusals checks the arming guards: non-positive domains or
// lookahead leave the engine sequential, and the FLICKSIM_NOPREDECODE
// reference engine (which must disable every fast path) wins over
// EnableRunAhead.
func TestEnableSimParRefusals(t *testing.T) {
	for _, tc := range []struct {
		domains   int
		lookahead Duration
	}{{0, Nanosecond}, {-1, Nanosecond}, {2, 0}, {2, -Nanosecond}} {
		e := NewEnv()
		e.EnableRunAhead(tc.domains, tc.lookahead)
		if st := e.EngineStats(); st.Enabled {
			t.Errorf("EnableRunAhead(%d, %v): engine armed, want refusal", tc.domains, tc.lookahead)
		}
	}
	t.Setenv("FLICKSIM_NOPREDECODE", "1")
	e := NewEnv()
	e.EnableRunAhead(2, 825*Nanosecond)
	if st := e.EngineStats(); st.Enabled {
		t.Error("EnableRunAhead armed despite FLICKSIM_NOPREDECODE")
	}
}

// TestSimParStatsAccounting checks that windows and horizon waits are
// counted, and that a sequential run reports no window activity (the
// stats must never leak into the byte-identical artifacts, so they live
// outside the metrics registry — this test documents that they still
// exist and move).
func TestSimParStatsAccounting(t *testing.T) {
	const lookahead = 825 * Nanosecond
	s := drawCrossSchedule(3, 4, lookahead)
	seqSt := runCrossSchedule(s, lookahead, false).stats
	if seqSt.Enabled || seqSt.Windows != 0 || seqSt.HorizonWaits != 0 || seqSt.ParkedEmits != 0 {
		t.Errorf("sequential run reports nonzero run-ahead stats: %+v", seqSt)
	}
	parSt := runCrossSchedule(s, lookahead, true).stats
	if !parSt.Enabled || parSt.Domains != 4 || parSt.Lookahead != lookahead {
		t.Errorf("run-ahead config stats wrong: %+v", parSt)
	}
	if parSt.Windows == 0 || parSt.HorizonWaits+parSt.ParkedEmits > parSt.Windows {
		t.Errorf("run-ahead counted %d windows, %d horizon waits, %d parked emits",
			parSt.Windows, parSt.HorizonWaits, parSt.ParkedEmits)
	}
}

// TestSimParPanicInsideWindow checks that a panic raised inside a
// run-ahead window surfaces from Run with its original value and leaves
// no goroutine behind. The first board's body returns inside its own
// window, so the second board's window opens against a phantom whose
// process has already finished.
func TestSimParPanicInsideWindow(t *testing.T) {
	type boom struct{ name string }
	before := runtime.NumGoroutine()
	want := &boom{"window"}
	env := NewEnv()
	env.EnableRunAhead(2, 825*Nanosecond)
	env.Spawn("board1", func(p *Proc) {
		p.BeginCompute(1)
		for i := 0; i < 10; i++ {
			p.Sleep(Nanosecond)
		}
	})
	env.Spawn("board2", func(p *Proc) {
		p.BeginCompute(2)
		for {
			p.Sleep(Nanosecond)
			if p.InWindow() {
				panic(want)
			}
		}
	})
	func() {
		defer func() {
			if r := recover(); r != want {
				t.Errorf("Run panicked with %v, want %v", r, want)
			}
		}()
		env.Run()
	}()
	if got := env.EngineStats().Windows; got != 2 {
		t.Errorf("%d windows opened, want 2 (board1's, then board2's)", got)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines leaked past a panic inside a window: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSimParPhaseScratchReuse is the pool-hygiene property: every
// process's trajectory keeps the capacity it was given on its first
// run-ahead window, never regrown, and every process goroutine is gone
// once Run returns. A trajectory that regrows or a goroutine stranded past
// its window fails here.
func TestSimParPhaseScratchReuse(t *testing.T) {
	const lookahead = 825 * Nanosecond
	const domains = 4
	before := runtime.NumGoroutine()

	var schedules []crossSchedule
	for seed := int64(100); seed < 112; seed++ {
		schedules = append(schedules, drawCrossSchedule(seed, domains, lookahead))
	}
	// A long window: two boards sleeping in lockstep, each 5000 times in
	// one compute window, so only the trajectory bound ends some windows.
	long := crossSchedule{boards: make([][]schedStep, 2)}
	for d := range long.boards {
		for i := 0; i < 5000; i++ {
			long.boards[d] = append(long.boards[d], schedStep{sleep: Duration(1+(i+d)%3) * Nanosecond})
		}
	}
	schedules = append(schedules, long)

	var windows uint64
	for i, s := range schedules {
		seed := 100 + int64(i)
		res := runCrossSchedule(s, lookahead, true)
		st := res.stats
		windows += st.Windows
		for _, p := range res.env.procs[:len(s.boards)] { // boards spawn first
			if p.traj == nil && i < len(schedules)-1 {
				continue // never ran ahead; the long schedule's boards always do
			}
			if got := cap(p.traj); got != trajCap {
				t.Fatalf("seed %d: %s trajectory capacity %d after %d windows, want the preallocated %d",
					seed, p.name, got, st.Windows, trajCap)
			}
		}
	}
	if windows == 0 {
		t.Fatal("no window ever opened; the trajectory path was never exercised")
	}

	// A process blocked past its window would keep its goroutine alive
	// past Run. Allow the runtime a moment to retire finished goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked across run-ahead runs: %d before, %d after", before, runtime.NumGoroutine())
}

// FuzzCrossDomainOrdering feeds arbitrary byte strings through a schedule
// decoder and differentially checks the run-ahead engine against the
// sequential one, hunting (time, domain, seq) tie-break bugs the seeded
// property test might miss. Each byte triple becomes one step of one
// domain's process; ties are common by construction because sleep durations
// are drawn from a tiny alphabet.
func FuzzCrossDomainOrdering(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x10, 0x20, 0x30})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x01, 0xfe, 0x55, 0xaa})
	f.Add([]byte("flick-sim-par"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const domains = 3
		const lookahead = 16 * Nanosecond
		s := crossSchedule{boards: make([][]schedStep, domains), open: make([]bool, domains)}
		for i := 0; i+2 < len(data) && i < 90; i += 3 {
			d := int(data[i]) % (domains + 1)
			// A tiny duration alphabet scaled to the lookahead makes exact
			// ties between domains frequent.
			dur := Duration(data[i+1]%9) * (lookahead / 4)
			if d == domains {
				s.host = append(s.host, dur)
				continue
			}
			s.boards[d] = append(s.boards[d], schedStep{
				sleep: dur,
				merge: data[i+2]&8 != 0,
				emit:  data[i+2]&4 != 0,
				sync:  data[i+2]&1 != 0,
				drop:  data[i+2]&2 != 0,
			})
			s.open[d] = data[i+2]&16 != 0
		}
		seq := runCrossSchedule(s, lookahead, false)
		par := runCrossSchedule(s, lookahead, true)
		if d := diffCrossResults(seq, par); d != "" {
			t.Fatal(d)
		}
	})
}
