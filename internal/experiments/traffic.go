package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/traffic"
	"flick/internal/workloads"
)

// TrafficOptions parameterizes the traffic mode on top of the shared
// experiment Options (boards, policy, faults, seeds, jobs all compose).
type TrafficOptions struct {
	// Arrival names the arrival shape ("poisson", "burst"; empty =
	// poisson).
	Arrival string
	// Rate is the offered load in tasks/s. Zero runs the capacity sweep
	// instead of a single point.
	Rate float64
	// Window is the admission window (zero = 8ms).
	Window sim.Duration
	// SLO, when positive, is the p99 sojourn target each run is judged
	// against.
	SLO sim.Duration
}

// trafficKneeFactor defines the capacity knee: an offered load is past the
// knee once migration p99 exceeds this multiple of the unloaded mean.
const trafficKneeFactor = 5

// trafficMultipliers is the capacity sweep's offered-load grid, as
// multiples of the calibrated capacity estimate. The top entries sit far
// past any estimation error so the sweep always demonstrates the knee.
var trafficMultipliers = []float64{0.3, 0.6, 1.0, 1.5, 2.0, 3.0}

// trafficCalibrate runs a single unloaded task (one arrival at time zero,
// no fault injection) on the configured machine shape and returns the
// reference Result: the unloaded sojourn and migration mean that anchor
// the capacity estimate and the knee criterion.
func trafficCalibrate(o Options, topt TrafficOptions) (traffic.Result, error) {
	params := o.machineParams(0)
	if params != nil && params.Faults != "" {
		p := *params // the unloaded reference is always fault-free
		p.Faults = ""
		p.FaultSeed = 0
		params = &p
	}
	return workloads.RunTraffic(workloads.TrafficConfig{
		Arrivals: []sim.Time{0},
		Window:   topt.Window,
		Params:   params,
		Obs:      o.observer("traffic/calibrate"),
	})
}

// trafficCapacity estimates the machine's task capacity from the unloaded
// reference: the host side saturates when Cores tasks are continuously in
// sojourn, the board side when the boards' serial migration service is
// continuously busy. The estimate only anchors the sweep grid — the grid's
// top multipliers overshoot it on purpose.
func trafficCapacity(cal traffic.Result, cores int) (est float64, bound string) {
	hostCap := float64(cores) / cal.SojMean.Seconds()
	var boardBusy sim.Duration
	for _, b := range cal.Boards {
		boardBusy += b.Busy
	}
	boardCap := float64(len(cal.Boards)) / boardBusy.Seconds()
	if boardCap < hostCap {
		return boardCap, "board-bound"
	}
	return hostCap, "host-bound"
}

// trafficSpec builds the arrival spec for one run, deriving its seed from
// the experiment seed and the job position.
func trafficSpec(o Options, shape traffic.Shape, rate float64, job uint64) traffic.Spec {
	return traffic.Spec{
		Shape: shape,
		Rate:  rate,
		Seed:  uint64(runner.DeriveSeed(o.Seed, job)),
	}
}

// Traffic is the flicksim traffic mode: open-loop arrival streams of
// migrating tasks with p50/p99/p999 SLO reporting. With TrafficOptions.
// Rate set it runs one offered-load point and renders the full report;
// otherwise it sweeps a grid of offered loads around the calibrated
// capacity and renders the capacity table, marking the knee where
// migration p99 blows past trafficKneeFactor× the unloaded mean. Output is
// byte-identical for any Options.Jobs value. Any lost call (a task that
// failed or exited with a wrong value) is an error: open loop means late,
// never lost.
func Traffic(o Options, topt TrafficOptions, w io.Writer) error {
	o, err := o.withDefaults()
	if err != nil {
		return err
	}
	shape, err := traffic.ParseShape(topt.Arrival)
	if err != nil {
		return err
	}
	if topt.Window == 0 {
		topt.Window = 8 * sim.Millisecond
	}
	if topt.Window < 0 || topt.Rate < 0 || topt.SLO < 0 {
		return fmt.Errorf("experiments: traffic window/rate/slo must be >= 0")
	}

	cal, err := trafficCalibrate(o, topt)
	if err != nil {
		return fmt.Errorf("experiments: traffic calibration: %w", err)
	}
	cfg := workloads.TrafficConfig{}.WithDefaults()
	capEst, bound := trafficCapacity(cal, cfg.Cores)
	kneeNS := trafficKneeFactor * cal.MigMeanNS

	runPoint := func(rate float64, job uint64, obs *sim.Observer, params *platform.Params) (traffic.Result, error) {
		return workloads.RunTraffic(workloads.TrafficConfig{
			Arrival: trafficSpec(o, shape, rate, job),
			Window:  topt.Window,
			Params:  params,
			Obs:     obs,
		})
	}

	if topt.Rate > 0 {
		// Single-point mode: one job (the pool still applies the timeout).
		name := fmt.Sprintf("traffic/%s/rate=%.0f", shape, topt.Rate)
		obs := o.observer(name)
		params := o.machineParams(1)
		jobs := []runner.Job[traffic.Result]{{
			ID: 0, Name: name,
			Run: func(context.Context) (traffic.Result, error) {
				return runPoint(topt.Rate, 1, obs, params)
			},
		}}
		rs, err := runner.Run(context.Background(), o.pool(), jobs)
		if err != nil {
			return err
		}
		r := rs[0]
		r.WriteReport(w, topt.SLO)
		knee := "at or below the knee"
		if float64(r.MigP99NS) > kneeNS {
			knee = "PAST the knee"
		}
		fmt.Fprintf(w, "  unloaded   : sojourn %.1fµs, migration mean %.1fµs (capacity ≈ %.0f tasks/s, %s)\n",
			cal.SojMean.Microseconds(), cal.MigMeanNS/1e3, capEst, bound)
		fmt.Fprintf(w, "  knee check : migration p99 ≤ %.1fµs vs %d× unloaded mean %.1fµs → %s\n",
			float64(r.MigP99NS)/1e3, trafficKneeFactor, kneeNS/1e3, knee)
		if r.Failed > 0 {
			return fmt.Errorf("experiments: traffic lost %d of %d tasks", r.Failed, r.Tasks)
		}
		return nil
	}

	// Capacity sweep: one job per offered-load multiplier.
	jobs := make([]runner.Job[traffic.Result], len(trafficMultipliers))
	for i, mult := range trafficMultipliers {
		rate := capEst * mult
		job := uint64(i + 1) // position 0 is the calibration's params slot
		name := fmt.Sprintf("traffic/%s/x%.1f", shape, mult)
		obs := o.observer(name)
		params := o.machineParams(job)
		jobs[i] = runner.Job[traffic.Result]{
			ID: i, Name: name,
			Run: func(context.Context) (traffic.Result, error) {
				return runPoint(rate, job, obs, params)
			},
		}
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return err
	}

	headers := []string{"Offered/s", "×cap", "Achieved/s", "Mig p50≤", "Mig p99≤", "Mig p999≤", "Soj p99", "Runq peak", "Board busy", "Knee"}
	if topt.SLO > 0 {
		headers = append(headers, "SLO")
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Open-loop capacity sweep: %s arrivals over %.1fms windows", shape, topt.Window.Microseconds()/1e3),
		Headers: headers,
	}
	var failures []error
	for i, r := range rs {
		var busy float64
		for _, b := range r.Boards {
			busy += b.Util
		}
		busy /= float64(len(r.Boards))
		knee := ""
		if float64(r.MigP99NS) > kneeNS {
			knee = "← past"
		}
		row := []any{
			fmt.Sprintf("%.0f", capEst*trafficMultipliers[i]),
			fmt.Sprintf("%.1f", trafficMultipliers[i]),
			fmt.Sprintf("%.0f", r.Achieved),
			fmt.Sprintf("%.1fµs", float64(r.MigP50NS)/1e3),
			fmt.Sprintf("%.1fµs", float64(r.MigP99NS)/1e3),
			fmt.Sprintf("%.1fµs", float64(r.MigP999NS)/1e3),
			fmt.Sprintf("%.1fµs", r.SojP99.Microseconds()),
			r.RunqPeak,
			fmt.Sprintf("%.0f%%", busy*100),
			knee,
		}
		if topt.SLO > 0 {
			verdict := "PASS"
			if r.SojP99 > topt.SLO {
				verdict = "FAIL"
			}
			row = append(row, verdict)
		}
		t.AddRow(row...)
		if r.Failed > 0 {
			failures = append(failures, fmt.Errorf("experiments: traffic x%.1f lost %d of %d tasks",
				trafficMultipliers[i], r.Failed, r.Tasks))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("capacity ≈ %.0f tasks/s (%s); unloaded sojourn %.1fµs, unloaded migration mean %.1fµs",
			capEst, bound, cal.SojMean.Microseconds(), cal.MigMeanNS/1e3),
		fmt.Sprintf("knee criterion: migration p99 > %d× unloaded mean (%.1fµs); quantiles from power-of-two buckets are upper bounds (docs/TRAFFIC.md)",
			trafficKneeFactor, kneeNS/1e3))
	t.Render(w)
	return errors.Join(failures...)
}
