package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// simParStep is one pre-drawn action of a synthetic board process. Every
// random decision is drawn before the run starts so the sequential and
// parallel engines replay the identical schedule regardless of how their
// goroutines interleave.
type simParStep struct {
	sleep Duration
	emit  bool // emit a trace event after the sleep (a sync point when traced)
	sync  bool // park at a synchronization point after the sleep
	drop  bool // close and reopen the compute window (EndCompute/BeginCompute)
}

// simParSchedule is a full pre-drawn workload: per-board step lists, an
// untagged host process's sleep list, and a set of timer firings.
type simParSchedule struct {
	boards [][]simParStep
	host   []Duration
	timers []Duration
}

// drawSimParSchedule derives a workload from the seed. Durations are chosen
// around the lookahead scale so phases form, horizons bind, and parks issue
// at ties as well as in the open interior.
func drawSimParSchedule(seed int64, domains int, lookahead Duration) simParSchedule {
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
	s := simParSchedule{boards: make([][]simParStep, domains)}
	for d := range s.boards {
		n := 4 + rng.Intn(12)
		for i := 0; i < n; i++ {
			s.boards[d] = append(s.boards[d], simParStep{
				sleep: dur(),
				emit:  rng.Intn(3) == 0,
				sync:  rng.Intn(5) == 0,
				drop:  rng.Intn(7) == 0,
			})
		}
	}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		s.host = append(s.host, dur())
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		s.timers = append(s.timers, dur()+1)
	}
	return s
}

// simParResult carries everything a differential comparison cares about:
// the full event trace, the end time, per-board private-clock checksums
// (each board folds every post-sleep Proc.Now() into its own slot, so the
// member clock is checked even on steps that never touch the shared
// engine), and the engine statistics.
type simParResult struct {
	events []Event
	end    Time
	clocks []uint64
	stats  SimParStats
}

// runSimParSchedule executes the schedule on a fresh environment, with the
// conservative parallel engine armed or not.
func runSimParSchedule(s simParSchedule, lookahead Duration, par bool) simParResult {
	env := NewEnv(WithTraceCapacity(1 << 14))
	if par {
		env.EnableSimPar(len(s.boards), lookahead)
	}
	clocks := make([]uint64, len(s.boards))
	for d := range s.boards {
		d := d
		steps := s.boards[d]
		env.Spawn(fmt.Sprintf("board%d", d), func(p *Proc) {
			p.BeginCompute(d + 1)
			for i, st := range steps {
				p.Sleep(st.sleep)
				// FNV-style fold of the clock observations; the slot is
				// owned by this goroutine alone.
				clocks[d] = (clocks[d] ^ uint64(p.Now())) * 1099511628211
				if st.emit {
					p.Emit(Event{Comp: fmt.Sprintf("board%d", d), Kind: KindSched, Aux: uint64(i)})
				}
				if st.sync {
					p.PhaseSync()
					p.Emit(Event{Comp: fmt.Sprintf("board%d", d), Kind: KindIRQ, Aux: uint64(i)})
				}
				if st.drop {
					p.EndCompute()
					p.Emit(Event{Comp: fmt.Sprintf("board%d", d), Kind: KindDMA, Aux: uint64(i)})
					p.BeginCompute(d + 1)
				}
			}
			p.EndCompute()
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
	return simParResult{events: env.Trace().Events(), end: end, clocks: clocks, stats: env.SimParStats()}
}

// diffSimParResults compares two runs of the same schedule, reporting the
// first divergence as an error string (empty when identical).
func diffSimParResults(seq, par simParResult) string {
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
// parallel engine must produce the byte-identical event trace, in the
// identical order, ending at the identical virtual time, as the sequential
// engine. Any conservative-safety violation (a member advancing past an
// event that should have preempted it, a join re-enqueueing out of order)
// shows up as a trace divergence.
func TestSimParDifferentialSynthetic(t *testing.T) {
	const lookahead = 825 * Nanosecond
	var phases, waits uint64
	for seed := int64(0); seed < 60; seed++ {
		for _, domains := range []int{1, 2, 3, 4} {
			s := drawSimParSchedule(seed, domains, lookahead)
			seq := runSimParSchedule(s, lookahead, false)
			par := runSimParSchedule(s, lookahead, true)
			phases += par.stats.Phases
			waits += par.stats.HorizonWaits
			if d := diffSimParResults(seq, par); d != "" {
				t.Fatalf("seed %d domains %d: %s", seed, domains, d)
			}
		}
	}
	if phases == 0 {
		t.Fatal("no phase ever formed; the parallel engine was never exercised")
	}
	if waits == 0 {
		t.Fatal("no member ever parked on its horizon; the lookahead bound was never exercised")
	}
}

// TestSimParInterleavingIndependence re-runs one parallel schedule many
// times under both serial and maximally parallel GOMAXPROCS. Member
// goroutines genuinely race on the wall clock, so any ordering that leaks
// from goroutine scheduling into the artifacts (join re-enqueue order,
// trace shard merge order) diverges across repetitions.
func TestSimParInterleavingIndependence(t *testing.T) {
	const lookahead = 825 * Nanosecond
	s := drawSimParSchedule(7, 4, lookahead)
	ref := runSimParSchedule(s, lookahead, true)
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			got := runSimParSchedule(s, lookahead, true)
			if d := diffSimParResults(ref, got); d != "" {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d run %d: %s", procs, i, d)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSimParHorizonProperty checks the conservative lookahead bound against
// an independent brute-force reference over random queue shapes: a member's
// horizon must sit strictly below every pending untagged or same-domain
// event, strictly below other-domain tagged events plus the lookahead, and
// strictly below co-members' start plus the lookahead — and never above the
// environment horizon.
func TestSimParHorizonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		e := NewEnv()
		L := Duration(1 + rng.Int63n(2000))
		e.EnableSimPar(4, L)
		base := Time(rng.Int63n(10_000))

		mkproc := func(domain int, depth int) *Proc {
			return &Proc{env: e, state: stateRunnable, domain: domain, computeDepth: depth,
				phaseBarred: rng.Intn(5) == 0}
		}
		// Random pending queue: untagged procs, timers, tagged procs of
		// random domains.
		nq := rng.Intn(8)
		for i := 0; i < nq; i++ {
			at := base.Add(Duration(rng.Int63n(3 * int64(L))))
			switch rng.Intn(3) {
			case 0:
				e.queue.Push(event{at: at, seq: uint64(i), timer: &Timer{}})
			case 1:
				e.queue.Push(event{at: at, seq: uint64(i), proc: mkproc(0, 0)})
			default:
				e.queue.Push(event{at: at, seq: uint64(i), proc: mkproc(1+rng.Intn(4), 1)})
			}
		}
		// Random member set with pairwise distinct domains, all starting
		// within L of base (the prefix rule guarantees this in real phases).
		k := 1 + rng.Intn(4)
		perm := rng.Perm(4)
		var members []event
		for i := 0; i < k; i++ {
			at := base.Add(Duration(rng.Int63n(int64(L))))
			m := mkproc(perm[i]+1, 1)
			m.phaseBarred = false // members are never barred (phaseEligible filters them)
			members = append(members, event{at: at, proc: m})
		}
		if rng.Intn(4) == 0 {
			e.horizon = base.Add(Duration(rng.Int63n(2 * int64(L))))
		}
		// Snapshot the queue for the brute-force reference bound.
		var pending []event
		e.queue.forEach(func(q *event) { pending = append(pending, *q) })

		for i := range members {
			h := e.memberHorizon(members, i)
			if h > e.horizon {
				t.Fatalf("iter %d: member %d horizon %d above env horizon %d", iter, i, h, e.horizon)
			}
			// Brute-force reference bound.
			want := maxTime
			for _, q := range pending {
				b := q.at
				if q.timer == nil && q.proc.computeDepth > 0 && q.proc.domain > 0 &&
					q.proc.domain != members[i].proc.domain && !q.proc.phaseBarred {
					b = q.at.Add(L)
				}
				if b < want {
					want = b
				}
			}
			for j, o := range members {
				if j == i {
					continue
				}
				if b := o.at.Add(L); b < want {
					want = b
				}
			}
			want = want - 1
			if e.horizon < want {
				want = e.horizon
			}
			if h != want {
				t.Fatalf("iter %d member %d: horizon %d, reference %d", iter, i, h, want)
			}
			// The strictness invariant the Sleep tie semantics rely on: no
			// untagged, barred, or same-domain pending event may be
			// reachable.
			for _, q := range pending {
				tagged := q.timer == nil && q.proc.computeDepth > 0 && q.proc.domain > 0 && !q.proc.phaseBarred
				if (!tagged || q.proc.domain == members[i].proc.domain) && h >= q.at {
					t.Fatalf("iter %d member %d: horizon %d reaches untagged/same-domain event at %d",
						iter, i, h, q.at)
				}
			}
		}
	}
}

// TestSimParLookaheadFloor pins the regression boundary for the horizon
// math: with the minimum meaningful lookahead (1 ps) every member's horizon
// collapses to its own start time whenever any other work is pending, so
// the engine degenerates to sequential execution — and the differential
// oracle must still hold there.
func TestSimParLookaheadFloor(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := drawSimParSchedule(seed, 3, 825*Nanosecond)
		seq := runSimParSchedule(s, 825*Nanosecond, false)
		par := runSimParSchedule(s, 1, true)
		if d := diffSimParResults(seq, par); d != "" {
			t.Fatalf("seed %d at 1 ps lookahead: %s", seed, d)
		}
	}
}

// TestEnableSimParRefusals checks the arming guards: non-positive domains or
// lookahead leave the engine sequential, and the FLICKSIM_NOPREDECODE
// reference engine (which must disable every fast path) wins over
// EnableSimPar.
func TestEnableSimParRefusals(t *testing.T) {
	for _, tc := range []struct {
		domains   int
		lookahead Duration
	}{{0, Nanosecond}, {-1, Nanosecond}, {2, 0}, {2, -Nanosecond}} {
		e := NewEnv()
		e.EnableSimPar(tc.domains, tc.lookahead)
		if st := e.SimParStats(); st.Enabled {
			t.Errorf("EnableSimPar(%d, %v): engine armed, want refusal", tc.domains, tc.lookahead)
		}
	}
	t.Setenv("FLICKSIM_NOPREDECODE", "1")
	e := NewEnv()
	e.EnableSimPar(2, 825*Nanosecond)
	if st := e.SimParStats(); st.Enabled {
		t.Error("EnableSimPar armed despite FLICKSIM_NOPREDECODE")
	}
}

// TestSimParStatsAccounting checks that phases, members, and horizon waits
// are counted, and that a sequential run reports no phase activity (the
// stats must never leak into the byte-identical artifacts, so they live
// outside the metrics registry — this test documents that they still
// exist and move).
func TestSimParStatsAccounting(t *testing.T) {
	const lookahead = 825 * Nanosecond
	s := drawSimParSchedule(3, 4, lookahead)
	seqSt := runSimParSchedule(s, lookahead, false).stats
	if seqSt.Enabled || seqSt.Phases != 0 || seqSt.Members != 0 || seqSt.HorizonWaits != 0 {
		t.Errorf("sequential run reports nonzero sim-par stats: %+v", seqSt)
	}
	parSt := runSimParSchedule(s, lookahead, true).stats
	if !parSt.Enabled || parSt.Domains != 4 || parSt.Lookahead != lookahead {
		t.Errorf("parallel run config stats wrong: %+v", parSt)
	}
	if parSt.Phases == 0 || parSt.Members < parSt.Phases {
		t.Errorf("parallel run counted %d phases / %d members", parSt.Phases, parSt.Members)
	}
}

// FuzzCrossDomainOrdering feeds arbitrary byte strings through a schedule
// decoder and differentially checks the parallel engine against the
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
		s := simParSchedule{boards: make([][]simParStep, domains)}
		for i := 0; i+2 < len(data) && i < 90; i += 3 {
			d := int(data[i]) % (domains + 1)
			// A tiny duration alphabet scaled to the lookahead makes exact
			// ties between domains frequent.
			dur := Duration(data[i+1]%9) * (lookahead / 4)
			if d == domains {
				s.host = append(s.host, dur)
				continue
			}
			s.boards[d] = append(s.boards[d], simParStep{
				sleep: dur,
				emit:  data[i+2]&4 != 0,
				sync:  data[i+2]&1 != 0,
				drop:  data[i+2]&2 != 0,
			})
		}
		seq := runSimParSchedule(s, lookahead, false)
		par := runSimParSchedule(s, lookahead, true)
		if d := diffSimParResults(seq, par); d != "" {
			t.Fatal(d)
		}
	})
}
