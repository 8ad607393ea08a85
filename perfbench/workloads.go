package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"flick"
	"flick/internal/experiments"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/traffic"
	"flick/internal/workloads"
)

// size scales the workloads. fullSize is what the benchmark measures;
// tinySize keeps the smoke tests fast.
type size struct {
	tiny bool
	// compute and multiboard: tasks, calls per task, and the range each
	// task's per-call loop count is drawn from.
	tasks, calls, burnMin, burnMax int
	// traffic: the admission window.
	window sim.Duration
}

var (
	fullSize = size{tasks: 8, calls: 6, burnMin: 3000, burnMax: 5000, window: 600 * sim.Millisecond}
	tinySize = size{tiny: true, tasks: 2, calls: 2, burnMin: 50, burnMax: 100, window: 200 * sim.Microsecond}
)

// The traffic shape: 12 host cores and one board offered 4-call tasks
// whose board body is five instructions, at a Poisson rate near what that
// machine can serve.
const (
	trafficCores = 12
	trafficCalls = 4
	trafficBurn  = 1
	trafficRate  = 40000
)

// workload is one set of inputs the benchmark runs. cores and boards give
// the machine shape the set-up and crossing probes build.
type workload struct {
	name          string
	cores, boards int
	// engineCounts is false when the machines are built inside the
	// program, where the benchmark cannot read Env.SchedSeq.
	engineCounts bool
	// prepare generates the inputs and builds what the run needs: the
	// set-up phase, timed as such.
	prepare func(seed int64, sz size, ph *phases) (*job, error)
}

// job is one prepared repetition.
type job struct {
	run   func(ph *phases) error
	check func(ph *phases, runErr error) outcome
}

// outcome is what one repetition's checks found.
type outcome struct {
	ops, failed int
	counts      counts
	// digest fingerprints the simulated outputs that must not change
	// unless the model does.
	digest string
	// info is printed once per run, beside the results.
	info string
}

// counts are the program's own counters after one repetition.
type counts struct {
	Instret, Migrations, DMA uint64
	Queued                   uint64 // Env.SchedSeq over the run's machines
	Translates, Walks        uint64
	DataTranslates           uint64
	TLBHits, TLBMisses       uint64
}

func (c *counts) add(snap sim.Snapshot) {
	for _, s := range snap.Counters {
		n, v := s.Name, s.Value
		switch {
		case strings.HasPrefix(n, "cpu.") && strings.HasSuffix(n, ".instret"):
			c.Instret += v
		case n == "kernel.migrations":
			c.Migrations += v
		case strings.HasPrefix(n, "dma") && strings.HasSuffix(n, ".transfers"):
			c.DMA += v
		case strings.HasPrefix(n, "mmu.") && strings.HasSuffix(n, ".translates"):
			c.Translates += v
			if strings.HasSuffix(n, "-dmmu.translates") {
				c.DataTranslates += v
			}
		case strings.HasPrefix(n, "mmu.") && strings.HasSuffix(n, ".walks"):
			c.Walks += v
		case strings.HasPrefix(n, "tlb.") && strings.HasSuffix(n, ".hits"):
			c.TLBHits += v
		case strings.HasPrefix(n, "tlb.") && strings.HasSuffix(n, ".misses"):
			c.TLBMisses += v
		}
	}
}

// phases times the set-up, run and check phases of one repetition and,
// when rec is non-nil, records each call as a span under parent.
type phases struct {
	rec               *recorder
	run, parent       int
	setup, sim, check time.Duration
}

// do times fn as one call of the given phase ("setup", "run" or "check");
// detail names the layer function called.
func (ph *phases) do(phase, detail string, fn func()) {
	id := ph.rec.begin(ph.parent, ph.run, phase, detail)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	ph.rec.end(id)
	switch phase {
	case "setup":
		ph.setup += d
	case "run":
		ph.sim += d
	case "check":
		ph.check += d
	}
}

var workloadList = []workload{
	{name: "compute", cores: fullSize.tasks, boards: 1, engineCounts: true, prepare: guestPrepare(1)},
	{name: "multiboard", cores: fullSize.tasks, boards: 4, engineCounts: true, prepare: guestPrepare(4)},
	{name: "traffic", cores: trafficCores, boards: 1, engineCounts: true, prepare: trafficPrepare},
	{name: "paper", boards: 1, prepare: paperPrepare},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// guestSource is the compute and multiboard program: each host task makes
// `calls` board calls, and each call runs `burn` rounds of xorshift64 on
// the board (eight instructions a round) and returns the final state,
// which seeds the next call. The task exits with the sum of the returned
// states, which mixOracle computes in Go.
const guestSource = `
.func main isa=host
    ; a0 = calls, a1 = initial state, a2 = rounds per call
    mov  t4, a0
    mov  t3, a1
    mov  fp, a2
    movi t5, 0
l:
    mov  a0, t3
    mov  a1, fp
    call board_mix
    add  t5, t5, a0
    mov  t3, a0
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func board_mix isa=nxp
w:
    shli t0, a0, 13
    xor  a0, a0, t0
    shri t0, a0, 7
    xor  a0, a0, t0
    shli t0, a0, 17
    xor  a0, a0, t0
    addi a1, a1, -1
    bne  a1, zr, w
    ret
.endfunc
`

// mixOracle is guestSource's exit code for one task, computed in Go.
func mixOracle(state uint64, calls, rounds int) uint64 {
	var acc uint64
	for c := 0; c < calls; c++ {
		for i := 0; i < rounds; i++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
		}
		acc += state
	}
	return acc
}

// guestInputs derives each task's initial state and per-call round count
// from the seed. Tasks come in pairs whose round counts sum to
// burnMin+burnMax, so the seed moves work between tasks but not the total:
// run-to-run differences in wall time are the host's, not the inputs'.
func guestInputs(seed int64, sz size) (states []uint64, rounds []int) {
	span := uint64(sz.burnMax - sz.burnMin)
	for i := 0; i < sz.tasks; i++ {
		states = append(states, uint64(runner.DeriveSeed(seed, uint64(2*i)))|1)
		if i%2 == 1 {
			rounds = append(rounds, sz.burnMin+sz.burnMax-rounds[i-1])
			continue
		}
		rounds = append(rounds, sz.burnMin+int(uint64(runner.DeriveSeed(seed, uint64(2*i+1)))%span))
	}
	return states, rounds
}

func guestConfig(cores, boards int, src string) flick.Config {
	params := platform.DefaultParams()
	params.HostCores = cores
	params.Boards = boards
	return flick.Config{Params: &params, Sources: map[string]string{"perfbench.fasm": src}}
}

// guestPrepare is the compute workload on one board and the multiboard
// workload on more.
func guestPrepare(boards int) func(int64, size, *phases) (*job, error) {
	return func(seed int64, sz size, ph *phases) (*job, error) {
		var states []uint64
		var rounds []int
		ph.do("setup", "inputs", func() { states, rounds = guestInputs(seed, sz) })
		var sys *flick.System
		var tasks []*kernel.Task
		var err error
		ph.do("setup", "flick.Build", func() {
			if sys, err = flick.Build(guestConfig(sz.tasks, boards, guestSource)); err != nil {
				return
			}
			for i := range states {
				var t *kernel.Task
				if t, err = sys.Start("main", uint64(sz.calls), states[i], uint64(rounds[i])); err != nil {
					return
				}
				tasks = append(tasks, t)
			}
		})
		if err != nil {
			return nil, err
		}
		return &job{
			run: func(ph *phases) (err error) {
				ph.do("run", "System.Run", func() { _, err = sys.Run() })
				return err
			},
			check: func(ph *phases, runErr error) (o outcome) {
				ph.do("check", "oracle", func() {
					o.ops = len(tasks)
					exits := make([]uint64, len(tasks))
					for i, t := range tasks {
						exits[i] = t.ExitCode
						if runErr != nil || t.Err != nil || t.State != kernel.TaskDone ||
							t.ExitCode != mixOracle(states[i], sz.calls, rounds[i]) {
							o.failed++
						}
					}
					o.counts.add(sys.Machine.Env.Metrics().Snapshot())
					o.counts.Queued = sys.Machine.Env.SchedSeq()
					c := o.counts
					o.digest = digestOf(sys.Now(), c.Instret, c.Migrations, c.DMA, exits)
				})
				return o
			},
		}, nil
	}
}

// trafficSource is the traffic program: a task makes `calls` board calls
// whose body spins `burn` times and returns id+iteration; the exit code is
// their sum, so a lost or repeated call shows.
const trafficSource = `
.func main isa=host
    ; a0 = calls, a1 = task id, a2 = burn
    mov  t4, a0
    mov  t3, a1
    mov  fp, a2
    movi t2, 0
    movi t5, 0
l:
    mov  a0, t3
    mov  a1, t2
    mov  a2, fp
    call board_echo
    add  t5, t5, a0
    addi t2, t2, 1
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func board_echo isa=nxp
    mov  t0, a2
w:
    addi t0, t0, -1
    bne  t0, zr, w
    add  a0, a0, a1
    ret
.endfunc
`

// trafficPrepare draws the seeded Poisson schedule, builds the machine and
// arms one admission timer per task. The load is an open loop in virtual
// time: a task is admitted at its scheduled time whatever the backlog.
func trafficPrepare(seed int64, sz size, ph *phases) (*job, error) {
	var schedule []sim.Time
	var err error
	ph.do("setup", "traffic.Schedule", func() {
		spec := traffic.Spec{Shape: traffic.ShapePoisson, Rate: trafficRate, Seed: uint64(seed)}
		schedule, err = spec.Schedule(sz.window)
	})
	if err != nil {
		return nil, err
	}
	var sys *flick.System
	tasks := make([]*kernel.Task, len(schedule))
	var admitErr error
	ph.do("setup", "flick.Build", func() {
		cfg := guestConfig(trafficCores, 1, trafficSource)
		cfg.Params.TrafficMetrics = true
		if sys, err = flick.Build(cfg); err != nil {
			return
		}
		for i, at := range schedule {
			sys.Machine.Env.AfterFunc(sim.Duration(at), func() {
				t, err := sys.Start("main", trafficCalls, uint64(i), trafficBurn)
				if err != nil && admitErr == nil {
					admitErr = err
				}
				tasks[i] = t
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return &job{
		run: func(ph *phases) (err error) {
			ph.do("run", "System.Run", func() { _, err = sys.Run() })
			if err == nil {
				err = admitErr
			}
			return err
		},
		check: func(ph *phases, runErr error) (o outcome) {
			ph.do("check", "oracle", func() {
				o.ops = len(tasks)
				var r traffic.Result
				sojourns := make([]sim.Duration, 0, len(tasks))
				for i, t := range tasks {
					if runErr != nil || t == nil || t.Err != nil || t.State != kernel.TaskDone || t.ExitCode != workloads.TrafficExit(i, trafficCalls) {
						o.failed++
						continue
					}
					sojourns = append(sojourns, t.DoneAt.Sub(schedule[i]))
				}
				r.SojournStats(sojourns)
				o.counts.add(sys.Machine.Env.Metrics().Snapshot())
				o.counts.Queued = sys.Machine.Env.SchedSeq()
				c := o.counts
				o.digest = digestOf(sys.Now(), c.Instret, c.Migrations, c.DMA, r.SojMean, r.SojP50, r.SojP99, r.SojP999)
			})
			return o
		},
	}, nil
}

// paperOptions are the options `flicksim -jobs 1 all` runs with, seeded
// from the benchmark's seed.
func paperOptions(seed int64, sz size) experiments.Options {
	o := experiments.Quick()
	o.Jobs = 1
	o.Seed = seed
	if seed == 0 {
		o.Seed = experiments.SeedZero
	}
	if sz.tiny {
		o.NullCallIters = 20
		o.ChasePoints = []int{4, 8}
		o.ChaseCalls = 1
		o.BFSScale = 2048
	}
	return o
}

// paperPrepare generates the three Table IV graphs, seeded as the Table IV
// jobs seed them: the paper experiments build their machines inside the
// run, so the set-up the benchmark can time is its own calls to the same
// generator. The graphs are dropped once timed; the Table IV jobs check
// their traversals against workloads.ReferenceBFS themselves and fail on a
// mismatch.
func paperPrepare(seed int64, sz size, ph *phases) (*job, error) {
	opts := paperOptions(seed, sz)
	ph.do("setup", "workloads.GenerateRMAT", func() {
		for di, d := range workloads.Table4Datasets {
			workloads.GenerateRMAT(d.Scale(opts.BFSScale), runner.DeriveSeed(seed, uint64(di))+1)
		}
	})
	obs := stats.NewObs(0)
	opts.Obs = obs
	var jobs, jobFails int
	opts.Progress = func(e runner.Event) {
		if e.Done {
			jobs++
			if e.Err != nil {
				jobFails++
			}
		}
	}
	var artifacts bytes.Buffer
	return &job{
		run: func(ph *phases) error {
			for _, r := range experiments.Registry {
				var err error
				ph.do("run", r.ID, func() { err = r.Run(opts, &artifacts) })
				if err != nil {
					return fmt.Errorf("%s: %w", r.ID, err)
				}
				artifacts.WriteByte('\n')
			}
			return nil
		},
		check: func(ph *phases, runErr error) (o outcome) {
			ph.do("check", "digest", func() {
				o.ops, o.failed = max(jobs, 1), jobFails
				if runErr != nil && jobFails == 0 {
					o.failed++
				}
				o.counts.add(obs.Merged())
				c := o.counts
				o.digest = digestOf(artifacts.String(), c.Instret, c.Migrations, c.DMA)
				o.info = paperError(artifacts.String())
			})
			return o
		},
	}, nil
}

var (
	table3Row = regexp.MustCompile(`(?m)^Host-NxP-Host.*\n-+.*\n([\d.]+)µs\s+([\d.]+)µs`)
	table4Row = regexp.MustCompile(`(?m)^(\w+)/\d+\s+\d+\s+\d+\s+[\d.]+s\s+[\d.]+s\s+([\d.]+)x`)
)

// paperError compares the rendered Table III and Table IV with the
// published numbers. It is information printed beside the results, not a
// metric: a speed-only change cannot move it.
func paperError(artifacts string) string {
	var b strings.Builder
	if m := table3Row.FindStringSubmatch(artifacts); m != nil {
		b.WriteString("Table III")
		for i, pub := range []float64{18.3, 16.9} {
			fmt.Fprintf(&b, " %sµs (paper %.1f, %+.1f%%)", m[i+1], pub, relErr(m[i+1], pub))
		}
	}
	published := map[string]float64{"Epinions1": 0.75, "Pokec": 1.19, "LiveJournal1": 1.09}
	if rows := table4Row.FindAllStringSubmatch(artifacts, -1); rows != nil {
		b.WriteString("; Table IV")
		for _, m := range rows {
			fmt.Fprintf(&b, " %s %sx (paper %.2fx, %+.1f%%)", m[1], m[2], published[m[1]], relErr(m[2], published[m[1]]))
		}
	}
	return b.String()
}

func relErr(got string, want float64) float64 {
	v, _ := strconv.ParseFloat(got, 64) // the regexps admit only numbers
	return (v - want) / want * 100
}
