package flick_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"flick"
	"flick/internal/experiments"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/sim"
	"flick/internal/workloads"
)

// The engine differential suite. The default engine — superblocks,
// in-place sleeps, translation reuse and conservative run-ahead across
// boards — changes how fast the simulator runs and must change nothing
// else. Every test here runs the same configuration on the default engine
// and on the reference engine (FLICKSIM_NOPREDECODE=1, every fast path
// off) and requires the complete observable record — virtual end time,
// exit codes, console output, the full metrics snapshot, and the full
// event trace — to match exactly. See docs/SCALING.md.

// engineRecord canonicalizes one run's complete observable record, plus
// the run-ahead statistics that say which engine produced it.
type engineRecord struct {
	total   sim.Duration
	calls   int
	report  string
	metrics sim.Snapshot
	stats   sim.EngineStats
}

// formatReport flattens a sim.Report into a comparable string. %+v is
// deterministic here: snapshots list metrics in registration order and
// events in emission order, both of which are part of the byte-identity
// contract being tested.
func formatReport(r sim.Report) string {
	return fmt.Sprintf("dropped=%d\n%+v\n%+v", r.Dropped, r.Metrics, r.Events)
}

// useReferenceEngine selects the reference engine for every machine the
// test builds from here on: the fast paths are chosen when a machine is
// built, and the variable is restored when the test ends.
func useReferenceEngine(t *testing.T) {
	t.Helper()
	t.Setenv("FLICKSIM_NOPREDECODE", "1")
}

// runScaleOutRecord runs the scale-out workload on the engine the
// environment selects and returns its observable record.
func runScaleOutRecord(t *testing.T, boards int, policy string, faults string, faultSeed int64) engineRecord {
	t.Helper()
	p := platform.DefaultParams()
	p.Faults = faults
	p.FaultSeed = faultSeed
	p.Boards = boards
	p.BoardPolicy = policy
	var rec engineRecord
	obs := &sim.Observer{
		TraceCap: 1 << 14,
		OnReport: func(r sim.Report) { rec.report, rec.metrics = formatReport(r), r.Metrics },
		OnEngine: func(st sim.EngineStats) { rec.stats = st },
	}
	total, calls, err := workloads.RunScaleOut(6, 8, &p, obs)
	if err != nil {
		t.Fatalf("boards=%d policy=%q faults=%q: %v", boards, policy, faults, err)
	}
	rec.total, rec.calls = total, calls
	return rec
}

// diffRecords compares a default-engine record against the reference
// engine's. A reference run that armed run-ahead would make the comparison
// vacuous, so that fails too.
func diffRecords(t *testing.T, label string, ref, fast engineRecord) {
	t.Helper()
	if ref.stats.Enabled {
		t.Errorf("%s: the reference engine armed run-ahead", label)
	}
	if ref.total != fast.total {
		t.Errorf("%s: end time diverges: reference %v, fast %v", label, ref.total, fast.total)
	}
	if ref.calls != fast.calls {
		t.Errorf("%s: migrated calls diverge: reference %d, fast %d", label, ref.calls, fast.calls)
	}
	if ref.report != fast.report {
		t.Errorf("%s: metrics/trace report diverges (reference %d bytes, fast %d bytes)",
			label, len(ref.report), len(fast.report))
	}
}

// scaleOutDifferential runs one scale-out configuration on the default
// engine, which must have armed run-ahead (unless the whole suite runs on
// the reference engine), and then on the reference engine, and compares
// the records, returning the default engine's. A one-board machine has one
// domain, so no pending tagged event ever gives a window slack and none
// may open.
func scaleOutDifferential(t *testing.T, label string, boards int, policy, faults string, faultSeed int64) engineRecord {
	t.Helper()
	fast := runScaleOutRecord(t, boards, policy, faults, faultSeed)
	if !fast.stats.Enabled && !sim.FastPathsDisabled() {
		t.Errorf("%s: the default engine did not arm run-ahead", label)
	}
	if boards == 1 && fast.stats.Windows != 0 {
		t.Errorf("%s: a one-board machine opened %d run-ahead windows", label, fast.stats.Windows)
	}
	useReferenceEngine(t)
	ref := runScaleOutRecord(t, boards, policy, faults, faultSeed)
	diffRecords(t, label, ref, fast)
	return fast
}

// TestSimParDifferentialScaleOut sweeps the scale-out workload across every
// board count and placement policy, default versus reference engine.
func TestSimParDifferentialScaleOut(t *testing.T) {
	for boards := 1; boards <= 4; boards++ {
		for _, policy := range placementPolicies() {
			t.Run(fmt.Sprintf("boards=%d/%s", boards, policy), func(t *testing.T) {
				scaleOutDifferential(t, "scaleout", boards, policy, "", 0)
			})
		}
	}
}

// TestSimParDifferentialFaulted repeats the differential under fault
// injection: the injector's deterministic streams must survive the engine
// swap bit for bit, across more than one seed.
func TestSimParDifferentialFaulted(t *testing.T) {
	const spec = "dma.fail=0.05,msi.drop=0.1"
	for _, seed := range []int64{7, 11} {
		for _, boards := range []int{2, 4} {
			t.Run(fmt.Sprintf("seed=%d/boards=%d", seed, boards), func(t *testing.T) {
				scaleOutDifferential(t, "faulted", boards, "", spec, seed)
			})
		}
	}
}

// TestRunAheadDifferentialSpurious runs ghost faults on machines whose
// boards run ahead: every core draws cpu.spurious from its own stream, so
// the default engine arms run-ahead here as everywhere, and a ghost fault
// that fires ends its core's window before it is counted, traced and
// delivered. Soak's storm spec leaves enough compute between ghost faults
// for windows to open; the record, trace included, must still equal the
// reference engine's.
func TestRunAheadDifferentialSpurious(t *testing.T) {
	var storm string
	for _, s := range experiments.DefaultSoakSpecs() {
		if s.Name == "storm" {
			storm = s.Spec
		}
	}
	for _, seed := range []int64{7, 13} {
		for boards := 2; boards <= 4; boards++ {
			t.Run(fmt.Sprintf("seed=%d/boards=%d", seed, boards), func(t *testing.T) {
				fast := scaleOutDifferential(t, "cpu.spurious", boards, "", storm, seed)
				if fast.metrics.Counter("fault.injected.cpu.spurious") == 0 {
					t.Error("no ghost fault was injected")
				}
				if fast.stats.Windows == 0 && !sim.FastPathsDisabled() {
					t.Error("no run-ahead window opened; ghost faults never met one")
				}
			})
		}
	}
}

// TestSimParInterleavingIndependence pins the default engine's record
// against the host scheduler: the same run on one OS thread and on all of
// them must agree with the reference engine. Only the goroutine holding
// the baton runs simulation code, so if any result ever depended on how
// the Go scheduler placed goroutines on threads, pinning GOMAXPROCS would
// expose it.
func TestSimParInterleavingIndependence(t *testing.T) {
	const reps = 3
	allProcs := []int{1, runtime.NumCPU()}
	var fast []engineRecord
	for _, procs := range allProcs {
		prev := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < reps; rep++ {
			fast = append(fast, runScaleOutRecord(t, 4, "", "", 0))
		}
		runtime.GOMAXPROCS(prev)
	}
	useReferenceEngine(t)
	ref := runScaleOutRecord(t, 4, "", "", 0)
	for i, rec := range fast {
		diffRecords(t, fmt.Sprintf("GOMAXPROCS=%d rep=%d", allProcs[i/reps], i%reps), ref, rec)
	}
}

// TestSimParDifferentialTraffic runs the open-loop traffic sweep — arrival
// process, admission windows, SLO verdicts and all — through both engines
// and compares the rendered report byte for byte.
func TestSimParDifferentialTraffic(t *testing.T) {
	render := func() string {
		o := experiments.Quick()
		o.Boards = 2
		var buf bytes.Buffer
		if err := experiments.Traffic(o, experiments.TrafficOptions{Window: 2 * sim.Millisecond}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fast := render()
	useReferenceEngine(t)
	ref := render()
	if ref != fast {
		t.Errorf("traffic report diverges between engines:\n--- reference ---\n%s\n--- fast ---\n%s", ref, fast)
	}
}

// TestSimParPhasesForm proves the differential results above are not
// vacuous: a multi-board machine built with no option set must arm
// run-ahead, agree with the platform's lookahead derivation, and open
// run-ahead windows.
func TestSimParPhasesForm(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOPREDECODE set: the reference engine never arms run-ahead")
	}
	p := platform.DefaultParams()
	p.HostCores = 6
	p.Boards = 4
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"mix.fasm": placementMix},
		Params:  &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := sys.Start("main", 5, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Machine.Env.EngineStats()
	if !st.Enabled {
		t.Fatal("EngineStats.Enabled = false on a default 4-board machine; run-ahead never armed")
	}
	if st.Domains != 4 {
		t.Errorf("EngineStats.Domains = %d, want 4", st.Domains)
	}
	if want := p.RunAheadLookahead(); st.Lookahead != want {
		t.Errorf("EngineStats.Lookahead = %v, want %v", st.Lookahead, want)
	}
	if st.Windows == 0 {
		t.Error("EngineStats.Windows = 0: the engine was armed but never opened a window")
	}
}

// TestSimParLookaheadPinned is the regression pin for the conservative
// lookahead: the minimum ISA-crossing latency on the calibrated machine is
// one 8-byte PCIe link read plus a host DRAM access — 825.016ns (the
// paper's ~825ns host-load-from-board figure; the 16ps tail is the link's
// per-byte serialization). Anyone changing Table I's link or memory
// timings must revisit the derivation in docs/SCALING.md, not just this
// number.
func TestSimParLookaheadPinned(t *testing.T) {
	p := platform.DefaultParams()
	want := 825*sim.Nanosecond + 16*sim.Picosecond
	if got := p.RunAheadLookahead(); got != want {
		t.Fatalf("DefaultParams().RunAheadLookahead() = %d ps, want %d ps", int64(got), int64(want))
	}
	if got, want := p.RunAheadLookahead(), p.Link.ReadLatency(8)+p.HostDRAMDevice; got != want {
		t.Fatalf("RunAheadLookahead() = %v no longer derives from one 8-byte link read + host DRAM (%v)", got, want)
	}
}

// TestSimParRaceStress is the race-detector workout: four boards' worth of
// run-ahead windows under fault injection, repeated a few times on the
// default engine. Functionally it re-checks the mix oracle; its real value
// is under `go test -race`, where any simulation code running on a
// goroutine that does not hold the baton — every window entry, replay and
// resumption is a channel handoff — becomes a hard failure.
func TestSimParRaceStress(t *testing.T) {
	const tasks, calls = 8, 5
	for rep := 0; rep < 3; rep++ {
		p := platform.DefaultParams()
		p.HostCores = tasks
		p.Faults = "dma1.fail=1,msi.drop=0.05"
		p.FaultSeed = 7
		p.Boards = 4
		sys, err := flick.Build(flick.Config{
			Sources: map[string]string{"mix.fasm": placementMix},
			Params:  &p,
		})
		if err != nil {
			t.Fatal(err)
		}
		var started []*kernel.Task
		for i := 0; i < tasks; i++ {
			task, err := sys.Start("main", uint64(calls), uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			started = append(started, task)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		for i, task := range started {
			if task.Err != nil {
				t.Fatalf("rep %d task %d: %v", rep, i, task.Err)
			}
			if want := mixExit(i, calls); task.ExitCode != want {
				t.Errorf("rep %d task %d exit = %d, want %d", rep, i, task.ExitCode, want)
			}
		}
	}
}
