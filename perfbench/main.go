// Command perfbench is the host-side benchmark of the flick simulator. It
// runs one workload for a fixed wall time, checks every simulated result,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench -workload compute -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it also
// runs the layer probes, records spans around every call it makes into the
// simulator, and reports the per-layer metrics instead. README.md defines
// every metric and workload.
//
// Each repetition of the workload runs in a child process that runs
// nothing else: a finished simulation leaves its service goroutines
// parked, so a second repetition in the same process would inherit the
// first one's memory.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the benchmark runs when none is given; its
// references are recorded in references.json like every other seed's.
const defaultSeed = 1

//go:embed references.json
var referencesJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compute, multiboard, traffic or paper")
	seed := fs.Int64("seed", defaultSeed, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "wall time to spend repeating the workload")
	trace := fs.Int("trace", 0, "1 runs the probes and records spans, reporting the per-layer metrics")
	out := fs.String("out", ".", "directory the traced run writes its spans to")
	tiny := fs.Bool("tiny", false, "run the tiny sizes of the smoke tests")
	rep := fs.Int("rep", -1, "run repetition `n` in this process and print its report (used by the parent run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench -workload compute|multiboard|traffic|paper [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	// One thread runs Go code, in this process and in every child: the
	// simulation is sequential, and a second thread adds only the host's
	// scheduling of its CPUs to what is measured. The ROADMAP states the
	// engine's targets at GOMAXPROCS=1 too.
	runtime.GOMAXPROCS(1)
	sz := fullSize
	if *tiny {
		sz = tinySize
	}
	if *rep >= 0 {
		return childRep(w, *seed, sz, *rep, *trace == 1, stdout, stderr)
	}

	refs := map[string]map[string]string{}
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		fmt.Fprintf(stderr, "perfbench: references.json: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, sz: sz, log: stderr}
	if !sz.tiny {
		cfg.reference = refs[w.name][strconv.FormatInt(*seed, 10)]
	}
	res, rec, err := bench(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rec != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d spans)\n", path, len(rec.spans))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// config is one benchmark run.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	sz      size
	// reference is the recorded digest for this workload and seed; empty
	// when the seed was never recorded.
	reference string
	log       io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repReport is what a child process reports about its repetition.
type repReport struct {
	Ops, Failed             int
	Digest, Info, Err       string
	Wall, Setup, Run, Check time.Duration
	SetupMedian             float64 // seconds, over the child's timed set-ups
	Counts                  counts
	AllocMB                 float64
	GCCycles                uint32
	PeakRSSMB               float64
	Origin                  int64 // wall clock of the spans' zero, in Unix ns
	Spans                   []span
	traced                  bool
	self                    map[string]time.Duration // span self times, filled by the parent
}

// runRep runs one repetition: set-up, simulation and checks. A failed
// set-up counts as one failed operation.
func runRep(w workload, seed int64, sz size, ph *phases) (outcome, error) {
	j, err := w.prepare(seed, sz, ph)
	if err != nil {
		return outcome{ops: 1, failed: 1}, fmt.Errorf("set-up: %w", err)
	}
	runErr := j.run(ph)
	return j.check(ph, runErr), runErr
}

// setupSamples is how many warm set-ups a child times when its untimed
// set-up took under setupSampleLimit; the report's set-up time is their
// median. A single
// set-up of a few milliseconds varies by ±30% on a shared host.
const (
	setupSamples     = 5
	setupSampleLimit = 100 * time.Millisecond
)

// childRep runs repetition rep in this process and prints its report. It
// sets up once untimed first, so the timed set-ups find the process warm,
// as every set-up after a user's first does. Every timed set-up, and the
// repetition, starts after a collection.
func childRep(w workload, seed int64, sz size, rep int, traced bool, stdout, stderr io.Writer) int {
	warm := &phases{}
	if _, err := w.prepare(seed, sz, warm); err != nil {
		fmt.Fprintf(stderr, "warm-up set-up: %v\n", err)
	}
	var setups []float64
	for i := 1; i < setupSamples && warm.setup < setupSampleLimit; i++ {
		runtime.GC()
		ph := &phases{}
		if _, err := w.prepare(seed, sz, ph); err != nil {
			break // the repetition's own set-up reports the error
		}
		setups = append(setups, ph.setup.Seconds())
	}
	runtime.GC()
	var rec *recorder
	ph := &phases{run: rep}
	var m0, m1 runtime.MemStats
	if traced {
		rec = newRecorder()
		ph.rec = rec
		ph.parent = rec.begin(0, rep, "rep", w.name)
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	o, err := runRep(w, seed, sz, ph)
	r := repReport{Wall: time.Since(t0), Ops: o.ops, Failed: o.failed, Digest: o.digest, Info: o.info,
		Setup: ph.setup, Run: ph.sim, Check: ph.check, Counts: o.counts}
	r.SetupMedian = median(append(setups, ph.setup.Seconds()))
	if err != nil {
		r.Err = err.Error()
	}
	if traced {
		rec.end(ph.parent)
		runtime.ReadMemStats(&m1)
		r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		r.GCCycles = m1.NumGC - m0.NumGC
		r.Origin, r.Spans = rec.origin.UnixNano(), rec.spans
	}
	var rssErr error
	if r.PeakRSSMB, rssErr = peakRSSMB(); rssErr != nil {
		fmt.Fprintf(stderr, "peak RSS: %v\n", rssErr)
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// spawnRep runs repetition rep in a child process and waits for it.
func spawnRep(w workload, cfg config, rep int, traced bool) (repReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return repReport{}, err
	}
	args := []string{"-rep", strconv.Itoa(rep), "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.sz.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	// The child starts with one P, not just switches to it in run: a
	// second P's caches and thread would show in peak_rss_mb.
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = cfg.log
	out, err := cmd.Output()
	if err != nil {
		return repReport{}, fmt.Errorf("repetition %d: %w", rep, err)
	}
	var r repReport
	if err := json.Unmarshal(bytes.TrimSpace(out), &r); err != nil {
		return repReport{}, fmt.Errorf("repetition %d: report: %w", rep, err)
	}
	r.traced = traced
	return r, nil
}

// childEnv marks a child repetition's environment, so a test binary
// standing in for the benchmark knows to act as one.
const childEnv = "PERFBENCH_CHILD"

// minReps is the fewest repetitions a run takes, whatever its wall time:
// single repetitions of paper vary by up to ±20% on a shared host, and a
// paper run has time for only about three in 20 seconds. README.md gives
// the run-to-run spread this leaves.
const minReps = 6

// bench repeats the workload until the run's wall time is spent, and at
// least minReps times, and reduces the repetitions to metrics. The traced
// run measures the probes first, then alternates untraced and traced
// repetitions, so the tracing overhead is measured in one run.
func bench(w workload, cfg config) (result, *recorder, error) {
	res := result{Metrics: map[string]metric{}}
	var rec *recorder
	probeVals := map[string]float64{}
	if cfg.traced {
		rec = newRecorder()
		for _, p := range probes {
			runtime.GC()
			id := rec.begin(0, -1, "probe", p.name)
			v, err := p.measure(w, cfg.seed, cfg.sz)
			rec.end(id)
			res.Attempted++
			if err != nil {
				res.Failed++
				fmt.Fprintf(cfg.log, "probe %s failed: %v\n", p.name, err)
				continue
			}
			probeVals[p.name] = v
		}
	}

	want := cfg.reference
	if want == "" {
		fmt.Fprintf(cfg.log, "%s seed %d has no recorded reference; later repetitions are checked against the first\n", w.name, cfg.seed)
	}
	var reps []repReport
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep >= minReps {
			if len(reps) == 0 {
				break
			}
			var walls []float64
			for _, r := range reps {
				walls = append(walls, r.Wall.Seconds())
			}
			if time.Since(start).Seconds()+median(walls) > cfg.seconds.Seconds() {
				break
			}
		}
		r, err := spawnRep(w, cfg, rep, cfg.traced && rep%2 == 1)
		if err != nil {
			// The child crashed or printed no report: one failed operation.
			fmt.Fprintln(cfg.log, err)
			res.Attempted++
			res.Failed++
			continue
		}
		fmt.Fprintf(cfg.log, "repetition %d: wall %.4fs (set-up %.4fs, run %.4fs, check %.4fs)\n",
			rep, r.Wall.Seconds(), r.Setup.Seconds(), r.Run.Seconds(), r.Check.Seconds())
		if r.Err != "" {
			fmt.Fprintf(cfg.log, "repetition %d: %s\n", rep, r.Err)
		}
		if want == "" {
			want = r.Digest
		}
		if r.Digest != want {
			fmt.Fprintf(cfg.log, "repetition %d: simulated outputs %s differ from the reference %s\n", rep, r.Digest, want)
			r.Failed = r.Ops
		}
		if rep == 0 {
			fmt.Fprintf(cfg.log, "%s seed %d: digest %s\n", w.name, cfg.seed, r.Digest)
			if r.Info != "" {
				fmt.Fprintln(cfg.log, r.Info)
			}
		}
		if r.traced {
			r.self = selfTimes(rec.adopt(r.Origin, r.Spans), rep)
		}
		res.Attempted += r.Ops
		res.Failed += r.Failed
		reps = append(reps, r)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(cfg.log, "%d repetitions in %.1fs\n", len(reps), time.Since(start).Seconds())
	if len(reps) == 0 {
		return res, nil, fmt.Errorf("every repetition failed")
	}
	if cfg.traced {
		traceMetrics(res.Metrics, reps, probeVals, w.engineCounts, cfg.log)
	} else {
		endToEnd(res.Metrics, reps)
	}
	return res, rec, nil
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
func endToEnd(ms map[string]metric, reps []repReport) {
	var wall, setup, mips, cross, rss []float64
	for _, r := range reps {
		wall = append(wall, r.Wall.Seconds())
		setup = append(setup, r.SetupMedian)
		mips = append(mips, float64(r.Counts.Instret)/r.Run.Seconds()/1e6)
		cross = append(cross, float64(r.Counts.Migrations)/r.Run.Seconds())
		rss = append(rss, r.PeakRSSMB)
	}
	ms["wall_s"] = metric{median(wall), "s"}
	ms["sim_mips"] = metric{median(mips), "Minstr/s"}
	ms["crossings_per_s"] = metric{median(cross), "1/s"}
	ms["setup_s"] = metric{median(setup), "s"}
	ms["peak_rss_mb"] = metric{median(rss), "MB"}
}

// traceMetrics reduces the traced run to the per-layer metrics. The engine
// counts (Env.SchedSeq, and the engine's share of the attribution) are
// printed on standard error instead, and only when engine is true: they
// are readable only on machines the benchmark builds, and paper's are
// built inside the experiments, so they cannot be metrics every workload
// reports. paper's engine share stays in unexplained_pct.
func traceMetrics(ms map[string]metric, reps []repReport, probeVals map[string]float64, engine bool, log io.Writer) {
	var tracedWall, plainWall, setupS, runS, checkS, alloc, gcs []float64
	var c counts
	for _, r := range reps {
		if !r.traced {
			plainWall = append(plainWall, r.Wall.Seconds())
			continue
		}
		tracedWall = append(tracedWall, r.Wall.Seconds())
		setupS = append(setupS, r.self["setup"].Seconds())
		runS = append(runS, r.self["run"].Seconds())
		checkS = append(checkS, r.self["check"].Seconds())
		alloc = append(alloc, r.AllocMB)
		gcs = append(gcs, float64(r.GCCycles))
		c = r.Counts
	}
	run := median(runS)
	ms["span.setup_s"] = metric{median(setupS), "s"}
	ms["span.run_s"] = metric{run, "s"}
	ms["span.check_s"] = metric{median(checkS), "s"}
	ms["trace.overhead_pct"] = metric{(median(tracedWall)/median(plainWall) - 1) * 100, "%"}
	ms["cpu.instret"] = metric{float64(c.Instret), "count"}
	ms["kernel.migrations"] = metric{float64(c.Migrations), "count"}
	ms["pcie.dma_transfers"] = metric{float64(c.DMA), "count"}
	ms["mmu.walk_ratio"] = metric{ratio(c.Walks, c.Translates), "ratio"}
	ms["tlb.hit_ratio"] = metric{ratio(c.TLBHits, c.TLBHits+c.TLBMisses), "ratio"}
	ms["go.alloc_mb"] = metric{median(alloc), "MB"}
	ms["go.gc_cycles"] = metric{median(gcs), "count"}
	if engine {
		fmt.Fprintf(log, "engine: sim.queued_events %d, sim.queued_per_kinstr %.4g\n", c.Queued, ratio(c.Queued, c.Instret)*1000)
	}
	for name, v := range probeVals {
		ms[name] = metric{v, probeUnit(name)}
	}
	a, ok := attribute(run, c, probeVals)
	if !ok {
		fmt.Fprintln(log, "attribution skipped: a probe it needs failed")
		return
	}
	ms["est.cpu_pct"] = metric{a.cpu, "%"}
	ms["est.mem_pct"] = metric{a.mem, "%"}
	ms["unexplained_pct"] = metric{a.unexplained, "%"}
	if engine {
		fmt.Fprintf(log, "engine: est.sim_pct %.4g\n", a.sim)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeUnit is the unit a probe's name ends in.
func probeUnit(name string) string {
	return name[strings.LastIndexByte(name, '_')+1:]
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
