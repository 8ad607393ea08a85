package workloads

import (
	"fmt"
	"math"

	"flick"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/sim"
	"flick/internal/traffic"
)

// trafficSource is the open-loop traffic workload: each task is a short
// stream of ISA-crossing calls. main(calls, id, burn) loops `calls` times
// invoking an NxP function that spins `burn` iterations of board time and
// returns id+iter; the accumulated exit code is a pure function of
// (id, calls) — independent of arrival order, board placement, and fault
// recovery — so it doubles as the lost-call oracle.
const trafficSource = `
.func main isa=host
    ; a0 = calls, a1 = task id, a2 = burn iterations per call
    mov  t4, a0          ; remaining calls
    mov  t3, a1          ; task id
    mov  fp, a2          ; burn count
    movi t2, 0           ; iteration counter
    movi t5, 0           ; accumulator
l:
    mov  a0, t3
    mov  a1, t2
    mov  a2, fp
    call nxp_traffic_work
    add  t5, t5, a0
    addi t2, t2, 1
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func nxp_traffic_work isa=nxp
    ; burn a2 loop iterations of board time, then return a0+a1
    mov  t0, a2
w:
    addi t0, t0, -1
    bne  t0, zr, w
    add  a0, a0, a1
    ret
.endfunc
`

// TrafficExit is the expected exit code of task id on a clean run:
// sum over j in [0, calls) of (id + j).
func TrafficExit(id, calls int) uint64 {
	return uint64(calls*id) + uint64(calls*(calls-1)/2)
}

// TrafficConfig parameterizes one open-loop traffic run.
type TrafficConfig struct {
	// Arrival is the arrival process. Ignored when Arrivals is set.
	Arrival traffic.Spec
	// Arrivals, when non-nil, is an explicit admission schedule overriding
	// Arrival — the calibration runs use a single arrival at time zero.
	Arrivals []sim.Time
	// Window is the admission window the schedule covers (default 8ms).
	Window sim.Duration
	// Calls is the number of ISA-crossing calls per task (default 4).
	Calls int
	// Burn is the board-side spin count per call (default 400, ≈4µs of
	// board time at the calibrated NxP cycle).
	Burn int
	// Cores is the host core count (default 12; must stay within the
	// 15-slot BRAM stack region on every board, since each on-core task
	// can hold one board stack per board).
	Cores int
	// Params is the machine configuration (boards, policy, faults, board
	// ISAs...); nil takes the calibrated defaults. HostCores is forced to
	// Cores and TrafficMetrics is switched on either way.
	Params *platform.Params
	// Obs, when non-nil, receives the run's observability report.
	Obs *sim.Observer
}

// WithDefaults fills zero-valued fields with the calibrated defaults; the
// experiments layer uses it to read the effective core count for its
// capacity estimate.
func (cfg TrafficConfig) WithDefaults() TrafficConfig {
	if cfg.Window == 0 {
		cfg.Window = 8 * sim.Millisecond
	}
	if cfg.Calls == 0 {
		cfg.Calls = 4
	}
	if cfg.Burn == 0 {
		cfg.Burn = 400
	}
	if cfg.Cores == 0 {
		cfg.Cores = 12
	}
	return cfg
}

// RunTraffic admits an open-loop schedule of migrating tasks against one
// machine and reports the run's SLO statistics. Every task's exit code is
// verified against the TrafficExit oracle; mismatches and task errors are
// counted as Failed (the "lost calls" a soak sweep asserts to be zero).
// The run is deterministic: byte-identical results for any worker count,
// and for any board count or policy the exit codes are unchanged.
func RunTraffic(cfg TrafficConfig) (traffic.Result, error) {
	cfg = cfg.WithDefaults()
	if cfg.Calls < 1 || cfg.Burn < 1 || cfg.Cores < 1 {
		return traffic.Result{}, fmt.Errorf("workloads: traffic calls/burn/cores must be >= 1, got %d/%d/%d",
			cfg.Calls, cfg.Burn, cfg.Cores)
	}
	schedule := cfg.Arrivals
	if schedule == nil {
		var err error
		if schedule, err = cfg.Arrival.Schedule(cfg.Window); err != nil {
			return traffic.Result{}, err
		}
	}
	if len(schedule) == 0 {
		return traffic.Result{}, fmt.Errorf("workloads: traffic schedule admitted no tasks in %v (rate too low?)", cfg.Window)
	}

	params := platform.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	params.HostCores = cfg.Cores
	params.TrafficMetrics = true
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Obs:     cfg.Obs,
		Sources: map[string]string{"traffic.fasm": trafficSource},
	})
	if err != nil {
		return traffic.Result{}, err
	}

	// Admit each task at its scheduled virtual time. The event loop runs
	// the timer callbacks in (time, seq) order — seq is assigned here
	// in schedule order — so admission order is deterministic even for
	// coincident arrivals.
	env := sys.Machine.Env
	tasks := make([]*kernel.Task, len(schedule))
	var admitErr error
	for i, at := range schedule {
		i, at := i, at
		env.AfterFunc(sim.Duration(at), func() {
			t, err := sys.Start("main", uint64(cfg.Calls), uint64(i), uint64(cfg.Burn))
			if err != nil && admitErr == nil {
				admitErr = fmt.Errorf("workloads: traffic task %d: %w", i, err)
			}
			tasks[i] = t
		})
	}
	_, runErr := sys.Run()
	cfg.Obs.Collect(sys)
	if admitErr != nil {
		return traffic.Result{}, admitErr
	}
	if runErr != nil {
		return traffic.Result{}, runErr
	}

	r := traffic.Result{
		Spec:     cfg.Arrival,
		Window:   cfg.Window,
		Tasks:    len(schedule),
		Makespan: sys.Now().Duration(),
		RunqPeak: sys.Kernel.RunqPeak(),
	}
	sojourns := make([]sim.Duration, 0, len(tasks))
	for i, t := range tasks {
		if t == nil || t.Err != nil || t.State != kernel.TaskDone || t.ExitCode != TrafficExit(i, cfg.Calls) {
			r.Failed++
			continue
		}
		r.Completed++
		sojourns = append(sojourns, t.DoneAt.Sub(schedule[i]))
	}
	if r.Makespan > 0 {
		r.Achieved = float64(r.Completed) / r.Makespan.Seconds()
	}
	r.SojournStats(sojourns)

	h := env.Metrics().Histogram("migration.latency_ns")
	r.MigCount = h.Count()
	r.MigMeanNS = h.Mean()
	r.MigP50NS = h.Quantile(0.50)
	r.MigP99NS = h.Quantile(0.99)
	r.MigP999NS = h.Quantile(0.999)

	bs := sys.Kernel.BoardSched()
	r.Boards = make([]traffic.BoardLoad, bs.NumBoards())
	for b := range r.Boards {
		bl := traffic.BoardLoad{
			Dispatches:   bs.Dispatches(b),
			PeakInFlight: bs.PeakInFlight(b),
			Busy:         bs.BusyTime(b),
		}
		if r.Makespan > 0 {
			bl.Util = float64(bl.Busy) / float64(r.Makespan)
			if math.IsNaN(bl.Util) {
				bl.Util = 0
			}
		}
		r.Boards[b] = bl
	}
	return r, nil
}
