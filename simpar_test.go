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

// simParRecord canonicalizes one run's complete observable record, plus
// the run-ahead statistics that say which engine produced it.
type simParRecord struct {
	total   sim.Duration
	calls   int
	report  string
	metrics sim.Snapshot
	stats   sim.SimParStats
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
func runScaleOutRecord(t *testing.T, boards int, policy string, faults string, faultSeed int64) simParRecord {
	t.Helper()
	p := platform.DefaultParams()
	p.Faults = faults
	p.FaultSeed = faultSeed
	var rec simParRecord
	obs := &sim.Observer{
		TraceCap: 1 << 14,
		OnReport: func(r sim.Report) { rec.report, rec.metrics = formatReport(r), r.Metrics },
		OnSimPar: func(st sim.SimParStats) { rec.stats = st },
	}
	total, calls, err := workloads.RunScaleOut(6, 8, boards, policy, &p, obs)
	if err != nil {
		t.Fatalf("boards=%d policy=%q faults=%q: %v", boards, policy, faults, err)
	}
	rec.total, rec.calls = total, calls
	return rec
}

// diffRecords compares a default-engine record against the reference
// engine's. A reference run that armed run-ahead would make the comparison
// vacuous, so that fails too.
func diffRecords(t *testing.T, label string, ref, fast simParRecord) {
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
// the records. A one-board machine has one domain, so no pending tagged
// event ever gives a window slack and none may open.
func scaleOutDifferential(t *testing.T, label string, boards int, policy, faults string, faultSeed int64) {
	t.Helper()
	fast := runScaleOutRecord(t, boards, policy, faults, faultSeed)
	if !fast.stats.Enabled && !sim.FastPathsDisabled() {
		t.Errorf("%s: the default engine did not arm run-ahead", label)
	}
	if boards == 1 && fast.stats.Phases != 0 {
		t.Errorf("%s: a one-board machine opened %d run-ahead windows", label, fast.stats.Phases)
	}
	useReferenceEngine(t)
	ref := runScaleOutRecord(t, boards, policy, faults, faultSeed)
	diffRecords(t, label, ref, fast)
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

// TestSimParSpuriousFallback pins the one machine the default engine keeps
// on sequential dispatch: a cpu.spurious rule draws ghost faults from one
// PRNG stream shared by every core, so run-ahead must not arm, and the
// record must still match the reference engine's.
func TestSimParSpuriousFallback(t *testing.T) {
	const spec = "cpu.spurious=0.01"
	fast := runScaleOutRecord(t, 2, "", spec, 7)
	if fast.stats.Enabled {
		t.Error("run-ahead armed on a machine with a cpu.spurious rule")
	}
	if fast.metrics.Counter("fault.injected.cpu.spurious") == 0 {
		t.Error("no ghost fault was injected; the fallback went unexercised")
	}
	useReferenceEngine(t)
	ref := runScaleOutRecord(t, 2, "", spec, 7)
	diffRecords(t, "cpu.spurious", ref, fast)
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
	var fast []simParRecord
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
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"mix.fasm": placementMix},
		Params:  &p,
		Boards:  4,
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
	st := sys.Machine.Env.SimParStats()
	if !st.Enabled {
		t.Fatal("SimParStats.Enabled = false on a default 4-board machine; run-ahead never armed")
	}
	if st.Domains != 4 {
		t.Errorf("SimParStats.Domains = %d, want 4", st.Domains)
	}
	if want := p.SimParLookahead(); st.Lookahead != want {
		t.Errorf("SimParStats.Lookahead = %v, want %v", st.Lookahead, want)
	}
	if st.Phases == 0 {
		t.Error("SimParStats.Phases = 0: the engine was armed but never opened a window")
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
	if got := p.SimParLookahead(); got != want {
		t.Fatalf("DefaultParams().SimParLookahead() = %d ps, want %d ps", int64(got), int64(want))
	}
	if got, want := p.SimParLookahead(), p.Link.ReadLatency(8)+p.HostDRAMDevice; got != want {
		t.Fatalf("SimParLookahead() = %v no longer derives from one 8-byte link read + host DRAM (%v)", got, want)
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
		sys, err := flick.Build(flick.Config{
			Sources: map[string]string{"mix.fasm": placementMix},
			Params:  &p,
			Boards:  4,
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
