package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"flick"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/traffic"
	"flick/internal/workloads"
)

// soakProgram is the soak workload: cross-ISA mutual-recursion fib, the
// §IV-B nested-bidirectional-call shape. Every recursion level is a
// migration, both directions nest reentrantly, and the console print plus
// the exit value give two independent correctness witnesses that must be
// identical under any fault schedule.
const soakProgram = `
.func main isa=host
    call host_fib
    mov  t4, a0
    sys  3          ; print fib(n)
    mov  a0, t4
    halt
.endfunc

.func host_fib isa=host
    movi t0, 2
    bltu a0, t0, small
    push ra
    push a0
    addi a0, a0, -1
    call nxp_fib          ; host → NxP migration
    pop  t0
    push a0
    addi a0, t0, -2
    call nxp_fib          ; host → NxP migration
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
small:
    ret
.endfunc

.func nxp_fib isa=nxp
    movi t0, 2
    bltu a0, t0, small
    push ra
    push a0
    addi a0, a0, -1
    call host_fib         ; NxP → host migration
    pop  t0
    push a0
    addi a0, t0, -2
    call host_fib         ; NxP → host migration
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
small:
    ret
.endfunc
`

// soakArg is fib's input: fib(10) = 55 through ~170 migrations per run.
const soakArg = 10

// SoakSpec is one named fault mix in the soak matrix.
type SoakSpec struct {
	Name string
	Spec string // faultinj grammar; empty = fault-free control row
}

// DefaultSoakSpecs is the sweep the soak mode runs when no -faults spec
// is given: a fault-free control, then each fault family alone, then all
// of them at once. Rates are chosen to exercise every recovery path many
// times per run while staying far inside the retry budgets.
func DefaultSoakSpecs() []SoakSpec {
	return []SoakSpec{
		{"none", ""},
		{"dma", "dma.fail=0.1,dma.dup=0.1,dma.delay=0.25:2us"},
		{"msi", "msi.drop=0.15,msi.delay=0.25:5us"},
		{"spurious", "cpu.spurious=0.002,ipi.drop=0.25,ipi.delay=0.5:1us"},
		{"storm", "dma.fail=0.05,dma.dup=0.05,dma.delay=0.2:2us,msi.drop=0.1,msi.delay=0.2:5us,cpu.spurious=0.001,ipi.drop=0.2,ipi.delay=0.3:1us"},
	}
}

// soakSeedsPerSpec is how many independent fault schedules each spec runs.
const soakSeedsPerSpec = 3

// soakRun executes the soak workload once and reports its correctness
// witnesses plus the recovery counters.
type soakOutcome struct {
	End      sim.Time
	Ret      uint64
	Console  string
	Injected uint64 // total fault.injected.* hits
	Retries  uint64 // migration.retries + migration.dma_retries + shootdown.ipi_retries
	Timeouts uint64 // migration.timeouts
}

func soakRun(params *platform.Params) (soakOutcome, error) {
	sys, err := flick.Build(flick.Config{
		Params:  params,
		Sources: map[string]string{"soak.fasm": soakProgram},
	})
	if err != nil {
		return soakOutcome{}, err
	}
	defer sys.Close()
	ret, err := sys.RunProgram("main", soakArg)
	if err != nil {
		return soakOutcome{}, err
	}
	snap := sys.Machine.Env.Metrics().Snapshot()
	out := soakOutcome{
		End:     sys.Now(),
		Ret:     ret,
		Console: sys.Console(),
		Retries: snap.Counter("migration.retries") +
			snap.Counter("migration.dma_retries") +
			snap.Counter("shootdown.ipi_retries"),
		Timeouts: snap.Counter("migration.timeouts"),
	}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "fault.injected.") {
			out.Injected += c.Value
		}
	}
	return out, nil
}

// Soak sweeps fault specs × fault seeds over the nested-migration soak
// workload and asserts that every run computes the exact fault-free
// result: same console bytes, same return value — only the virtual end
// time may differ. Custom specs (Options.Faults non-empty) replace the
// default matrix. Every soak machine, the fault-free reference run's
// included, has the Options' board count, policy and board ISAs. The
// rendered table is byte-identical for any Jobs value; a correctness
// violation is returned as an error after the whole sweep finishes, so
// one bad cell never hides the others. Soak reports only its tables: its
// jobs take no metrics or trace slot.
func Soak(o Options, w io.Writer) error {
	o, err := o.withDefaults()
	if err != nil {
		return err
	}
	o.Obs = nil
	ref, err := soakRun(o.faultParams("", 0))
	if err != nil {
		return fmt.Errorf("soak: fault-free reference run: %w", err)
	}

	specs := DefaultSoakSpecs()
	if o.Faults != "" {
		specs = []SoakSpec{{"none", ""}, {"custom", o.Faults}}
	}

	type cell struct {
		spec SoakSpec
		seed int64
	}
	var cells []cell
	var names []string
	for _, spec := range specs {
		seeds := soakSeedsPerSpec
		if spec.Spec == "" {
			seeds = 1 // the control row has no fault streams to vary
		}
		for j := 0; j < seeds; j++ {
			seed := runner.DeriveSeed(o.FaultSeed, uint64(len(cells)))
			cells = append(cells, cell{spec, seed})
			names = append(names, fmt.Sprintf("soak/%s/seed=%d", spec.Name, seed))
		}
	}
	type result struct {
		out soakOutcome
		err error
	}
	rs, err := sweep(o, names, func(i int, _ *sim.Observer) (result, error) {
		out, err := soakRun(o.faultParams(cells[i].spec.Spec, cells[i].seed))
		switch {
		case err != nil: // the run's own failure is the cell's result
		case out.Ret != ref.Ret:
			err = fmt.Errorf("return value %d, want %d", out.Ret, ref.Ret)
		case out.Console != ref.Console:
			err = fmt.Errorf("console %q, want %q", out.Console, ref.Console)
		}
		return result{out, err}, nil
	})
	if err != nil {
		return err
	}

	t := &stats.Table{
		Title:   fmt.Sprintf("Fault-injection soak: fib(%d) across the ISA boundary", soakArg),
		Headers: []string{"Spec", "Fault seed", "Injected", "Recoveries", "Timeouts", "End time", "Result"},
	}
	var failures []error
	for i, r := range rs {
		c := cells[i]
		result := "ok"
		if r.err != nil {
			result = "FAIL: " + r.err.Error()
			failures = append(failures, fmt.Errorf("soak: %s seed %d: %w", c.spec.Name, c.seed, r.err))
		}
		t.AddRow(c.spec.Name, c.seed, r.out.Injected, r.out.Retries, r.out.Timeouts,
			fmt.Sprintf("%.1fµs", r.out.End.Sub(sim.Time(0)).Microseconds()), result)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every run must print %q and return %d; only virtual time may vary with the fault schedule", strings.TrimSpace(ref.Console), ref.Ret),
		"spec grammar and recovery parameters: docs/ROBUSTNESS.md")
	t.Render(w)

	trafficErr := soakTraffic(o, specs, w)
	return errors.Join(append(failures, trafficErr)...)
}

// soakTrafficRate is the offered load of the soak traffic phase: roughly
// half the default machine's capacity, so fault-induced delays queue the
// machine without drowning it.
const soakTrafficRate = 6000

// soakTrafficWindow keeps each traffic scenario short; with the recovery
// paths firing the tail of the run stretches well past it.
const soakTrafficWindow = 3 * sim.Millisecond

// soakTraffic runs one open-loop traffic scenario per fault spec and
// asserts zero lost calls: under every fault family the open loop may run
// late, but every admitted task must finish with its oracle exit code.
func soakTraffic(o Options, specs []SoakSpec, w io.Writer) error {
	type result struct {
		res traffic.Result
		err error
	}
	seeds := make([]int64, len(specs))
	names := make([]string, len(specs))
	for i, spec := range specs {
		seeds[i] = runner.DeriveSeed(o.FaultSeed, uint64(1000+i))
		names[i] = fmt.Sprintf("soak/traffic/%s", spec.Name)
	}
	rs, err := sweep(o, names, func(i int, _ *sim.Observer) (result, error) {
		res, err := workloads.RunTraffic(workloads.TrafficConfig{
			Arrival: traffic.Spec{Shape: traffic.ShapePoisson, Rate: soakTrafficRate, Seed: uint64(seeds[i])},
			Window:  soakTrafficWindow,
			Params:  o.faultParams(specs[i].Spec, seeds[i]),
		})
		return result{res, err}, nil
	})
	if err != nil {
		return err
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Fault-injection soak: open-loop traffic, %d tasks/s over %.0fms per spec",
			soakTrafficRate, soakTrafficWindow.Microseconds()/1e3),
		Headers: []string{"Spec", "Fault seed", "Tasks", "Lost", "Mig p99≤", "Soj p99", "Makespan", "Result"},
	}
	var failures []error
	for i, c := range rs {
		spec := specs[i]
		result := "ok"
		switch {
		case c.err != nil:
			result = "FAIL: " + c.err.Error()
			failures = append(failures, fmt.Errorf("soak traffic: %s: %w", spec.Name, c.err))
		case c.res.Failed > 0:
			result = fmt.Sprintf("FAIL: %d lost calls", c.res.Failed)
			failures = append(failures, fmt.Errorf("soak traffic: %s lost %d of %d tasks", spec.Name, c.res.Failed, c.res.Tasks))
		}
		t.AddRow(spec.Name, seeds[i], c.res.Tasks, c.res.Failed,
			fmt.Sprintf("%.1fµs", float64(c.res.MigP99NS)/1e3),
			fmt.Sprintf("%.1fµs", c.res.SojP99.Microseconds()),
			fmt.Sprintf("%.1fµs", c.res.Makespan.Microseconds()), result)
	}
	t.Notes = append(t.Notes,
		"open loop means late, never lost: every admitted task must exit with its oracle value under every fault mix",
		"traffic plane details: docs/TRAFFIC.md")
	t.Render(w)
	return errors.Join(failures...)
}
