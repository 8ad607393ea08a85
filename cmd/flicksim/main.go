// Command flicksim regenerates the paper's evaluation artifacts on the
// simulated platform.
//
// Usage:
//
//	flicksim [flags] <experiment>...
//	flicksim all
//
// Experiments: table2, table3, breakdown, latency, fig5a, fig5b, table4,
// stubs, tenants, kv. Extension modes outside 'all': scaleout, soak, and
// traffic (the open-loop SLO mode: -arrival/-rate/-duration/-slo, see
// docs/TRAFFIC.md).
//
// Each experiment expands into a graph of independent simulation jobs
// (one private machine per job) executed by -jobs parallel workers.
// Artifacts on stdout are byte-identical for every -jobs value; progress
// and timing go to stderr. -metrics-out and -trace-out additionally
// capture every job's metrics and typed event trace (see
// docs/OBSERVABILITY.md); those files too are byte-identical for every
// -jobs value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"flick/internal/experiments"
	"flick/internal/faultinj"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
)

// traceOutCap bounds the per-job event trace when -trace-out is set:
// enough for every migration event of a Quick run without letting a Full
// run hold the whole event stream in memory.
const traceOutCap = 1 << 16

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so the CLI is testable
// in-process: flags and experiment names in args, artifacts on stdout,
// progress and diagnostics on stderr. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flicksim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "paper-scale parameters (minutes of runtime)")
	scale := fs.Int("bfs-scale", 0, "override Table IV dataset divisor (1 = paper scale)")
	iters := fs.Int("iters", 0, "override averaging iteration count")
	jobs := fs.Int("jobs", runtime.NumCPU(), "parallel simulation jobs (1 = serial; results are identical either way)")
	timeout := fs.Duration("timeout", 0, "abort an experiment after this wall-clock duration (0 = no limit)")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines on stderr")
	metricsOut := fs.String("metrics-out", "", "write aggregated per-job metrics as JSON to this file")
	traceOut := fs.String("trace-out", "", "write per-job event traces as Chrome trace-event JSON to this file")
	faults := fs.String("faults", "", "fault-injection spec, e.g. 'dma.fail=0.05,msi.drop=0.1' (see docs/ROBUSTNESS.md)")
	faultSeed := fs.Int64("fault-seed", 0, "base seed for the fault-injection streams (0 = inherit the workload seed)")
	boards := fs.Int("boards", 1, "number of NxP boards per simulated machine (see docs/SCALING.md)")
	boardPolicy := fs.String("board-policy", "", "board placement policy: round-robin, least-loaded, or affinity (default round-robin)")
	boardISA := fs.String("board-isa", "", "comma-separated board core families, entry i → board i (registered backends; empty entries default to nxp; see docs/ISAS.md)")
	arrival := fs.String("arrival", "", "traffic arrival shape: poisson or burst (default poisson; see docs/TRAFFIC.md)")
	rate := fs.Float64("rate", 0, "traffic offered load in tasks/s (0 = sweep a grid around the calibrated capacity)")
	duration := fs.Duration("duration", 8*time.Millisecond, "traffic admission window in virtual time")
	slo := fs.Duration("slo", 0, "traffic p99 sojourn SLO target; each run is judged PASS/FAIL (0 = no SLO)")
	list := fs.Bool("list", false, "list registered experiments and ISA backends, then exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (see docs/PERFORMANCE.md)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Usage = func() {
		ids := append(experiments.IDs(), "all")
		for _, r := range experiments.Modes(experiments.TrafficOptions{}) {
			ids = append(ids, r.ID)
		}
		fmt.Fprintf(stderr, "usage: flicksim [flags] <experiment>...\n")
		fmt.Fprintf(stderr, "experiments: %s\n", strings.Join(ids, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := experiments.Modes(experiments.TrafficOptions{
		Arrival: *arrival,
		Rate:    *rate,
		Window:  sim.FromStd(*duration),
		SLO:     sim.FromStd(*slo),
	})
	if *list {
		printList(stdout, modes)
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *boards < 1 {
		fmt.Fprintf(stderr, "flicksim: -boards %d: must be >= 1\n", *boards)
		fs.Usage()
		return 2
	}
	if _, err := kernel.ParseBoardPolicy(*boardPolicy); err != nil {
		fmt.Fprintf(stderr, "flicksim: -board-policy: %v\n", err)
		fs.Usage()
		return 2
	}
	boardISAs, err := platform.ParseBoardISAs(*boardISA, *boards)
	if err != nil {
		fmt.Fprintf(stderr, "flicksim: -board-isa: %v\n", err)
		fs.Usage()
		return 2
	}
	if _, err := faultinj.Parse(*faults); err != nil {
		fmt.Fprintf(stderr, "flicksim: -faults: %v\n", err)
		fs.Usage()
		return 2
	}
	runners := slices.Concat(experiments.Registry, modes)
	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	todo := make([]experiments.Runner, len(ids))
	for k, id := range ids {
		i := slices.IndexFunc(runners, func(r experiments.Runner) bool { return r.ID == id })
		if i < 0 {
			fmt.Fprintf(stderr, "flicksim: unknown experiment %q\n", id)
			return 2
		}
		if !runners[i].AnyBoardISA && !platform.HasNxPBoard(boardISAs, *boards) {
			fmt.Fprintf(stderr, "flicksim: -board-isa %s: experiment %s runs nxp code and needs an nxp board\n", *boardISA, id)
			fs.Usage()
			return 2
		}
		todo[k] = runners[i]
	}

	// Profiling hooks for perf work: -cpuprofile samples the whole run,
	// -memprofile snapshots the heap after the final experiment. Both are
	// inert when unset.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "flicksim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "flicksim: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "flicksim: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "flicksim: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	o := experiments.Quick()
	if *full {
		o = experiments.Full()
	}
	if *scale > 0 {
		o.BFSScale = *scale
	}
	if *iters > 0 {
		o.NullCallIters = *iters
		o.BFSIters = *iters
	}
	o.Jobs = *jobs
	o.Timeout = *timeout
	o.Faults = *faults
	o.FaultSeed = *faultSeed
	o.Boards = *boards
	o.BoardPolicy = *boardPolicy
	o.BoardISAs = boardISAs
	if !*quiet {
		o.Progress = func(e runner.Event) { progress(stderr, e) }
	}
	if *metricsOut != "" || *traceOut != "" {
		traceCap := 0
		if *traceOut != "" {
			traceCap = traceOutCap
		}
		o.Obs = stats.NewObs(traceCap)
	}

	for _, r := range todo {
		start := time.Now()
		if err := r.Run(o, stdout); err != nil {
			fmt.Fprintf(stderr, "flicksim: %s: %v\n", r.ID, err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "  [%s regenerated in %.1fs wall time, %d jobs wide]\n",
			r.ID, time.Since(start).Seconds(), o.Jobs)
	}

	if *metricsOut != "" {
		if err := writeFile(*metricsOut, o.Obs.WriteMetricsJSON); err != nil {
			fmt.Fprintf(stderr, "flicksim: -metrics-out: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, o.Obs.WriteChromeTrace); err != nil {
			fmt.Fprintf(stderr, "flicksim: -trace-out: %v\n", err)
			return 1
		}
	}
	return 0
}

// printList reports what this build can simulate: every registry
// experiment plus the modes outside 'all', and every ISA backend the
// binary registered (the -board-isa vocabulary).
func printList(w io.Writer, modes []experiments.Runner) {
	fmt.Fprintln(w, "experiments:")
	for _, id := range experiments.IDs() {
		fmt.Fprintf(w, "  %s\n", id)
	}
	for _, r := range modes {
		fmt.Fprintf(w, "  %-9s (%s; not part of 'all')\n", r.ID, r.Title)
	}
	fmt.Fprintln(w, "isas:")
	for _, be := range isa.All() {
		role := "board"
		if be.Host() {
			role = "host"
		}
		fmt.Fprintf(w, "  %-5s id=%d  %-5s  func-align=%d\n", be.Name(), be.ISA(), role, be.FuncAlign())
	}
}

// writeFile creates path and streams one serializer into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progress prints per-job lifecycle lines so long Full() runs are
// observable. Stderr only: stdout carries nothing but the artifacts.
func progress(w io.Writer, e runner.Event) {
	if e.Err != nil {
		fmt.Fprintf(w, "  [%d/%d] FAIL  %-36s %6.2fs  %v\n",
			e.Finished, e.Total, e.Name, e.Elapsed.Seconds(), e.Err)
		return
	}
	if e.Done {
		fmt.Fprintf(w, "  [%d/%d] done  %-36s %6.2fs\n",
			e.Finished, e.Total, e.Name, e.Elapsed.Seconds())
	} else {
		fmt.Fprintf(w, "  [%d/%d] start %s\n", e.Started, e.Total, e.Name)
	}
}
