// Package traffic is the open-loop traffic plane: deterministic arrival
// generation for launching large populations of ISA-crossing task streams
// against the simulated platform, plus the SLO accounting (tail quantiles,
// utilization, capacity knees) that turns a run into a report. Arrival
// schedules are pure functions of their Spec — the same seed produces the
// same byte-identical schedule for any worker count, board count, or
// placement policy, which is what lets the artifact matrix cover traffic
// runs (see docs/TRAFFIC.md).
//
// The package deliberately depends only on internal/sim: the actual
// simulation driver lives in internal/workloads (RunTraffic) and the
// capacity sweep in internal/experiments, keeping the arrival math and
// report shaping testable without building machines.
package traffic

import (
	"fmt"
	"math"

	"flick/internal/sim"
)

// splitmix64 is the same tiny, splittable PRNG the fault-injection plane
// and the runner's seed derivation use: one uint64 of state, golden-gamma
// increment, avalanche finalizer. Good enough statistical quality for
// arrival processes, and — unlike math/rand — trivially reproducible from
// a documented algorithm.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform sample in [0, 1) with 53 random bits.
func (r *splitmix64) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Shape names an arrival process.
type Shape string

const (
	// ShapePoisson is a memoryless open-loop stream: i.i.d. exponential
	// inter-arrival gaps with mean 1/Rate.
	ShapePoisson Shape = "poisson"
	// ShapeBurst is an on-off process: arrivals are admitted only during
	// the first OnFraction of each Period, at rate Rate/OnFraction, so the
	// long-run average rate is still Rate but it lands in periodic bursts
	// that slam the run queue and the boards.
	ShapeBurst Shape = "burst"
)

// Shapes lists the valid arrival shapes in display order.
func Shapes() []Shape { return []Shape{ShapePoisson, ShapeBurst} }

// ParseShape validates a shape name from a flag. The empty string selects
// the default (poisson).
func ParseShape(s string) (Shape, error) {
	switch Shape(s) {
	case "":
		return ShapePoisson, nil
	case ShapePoisson, ShapeBurst:
		return Shape(s), nil
	}
	return "", fmt.Errorf("traffic: unknown arrival shape %q (want poisson, burst)", s)
}

// Spec fully determines an arrival schedule. Two equal Specs produce
// byte-identical schedules — all randomness flows from Seed through
// splitmix64, gaps are quantized to integer picoseconds before being
// accumulated, and no floating-point state survives between arrivals
// except via that integer clock.
type Spec struct {
	// Shape selects the process; zero value means poisson.
	Shape Shape
	// Rate is the long-run offered load in tasks per second of virtual
	// time. Must be positive.
	Rate float64
	// Seed seeds the arrival PRNG stream.
	Seed uint64
	// OnFraction (burst only) is the fraction of each Period during which
	// arrivals are admitted, in (0, 1]. Zero selects 0.25.
	OnFraction float64
	// Period (burst only) is the on-off cycle length. Zero selects 1ms.
	Period sim.Duration
}

// WithDefaults fills zero-valued optional fields.
func (s Spec) WithDefaults() Spec {
	if s.Shape == "" {
		s.Shape = ShapePoisson
	}
	if s.OnFraction == 0 {
		s.OnFraction = 0.25
	}
	if s.Period == 0 {
		s.Period = sim.Millisecond
	}
	return s
}

// Validate rejects specs that cannot generate a schedule.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if _, err := ParseShape(string(s.Shape)); err != nil {
		return err
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("traffic: arrival rate %v must be a positive finite tasks/s", s.Rate)
	}
	if s.OnFraction < 0 || s.OnFraction > 1 || !(s.OnFraction > 0) {
		return fmt.Errorf("traffic: burst on-fraction %v must be in (0, 1]", s.OnFraction)
	}
	if s.Period <= 0 {
		return fmt.Errorf("traffic: burst period %v must be positive", s.Period)
	}
	return nil
}

// expGapPs draws one exponential inter-arrival gap with mean 1/rate
// seconds and quantizes it to integer picoseconds. Quantizing each gap —
// rather than each absolute time — preserves the prefix property: the
// schedule for a shorter window is a prefix of the schedule for a longer
// one under the same Spec.
func expGapPs(rng *splitmix64, rate float64) int64 {
	u := rng.float64() // in [0, 1), so 1-u is in (0, 1] and Log is finite
	return int64(-math.Log(1-u) / rate * 1e12)
}

// Schedule generates every arrival in the admission window [0, d): the
// virtual times at which tasks are injected. The first arrival falls one
// exponential gap after time zero (open-loop processes have no arrival at
// the origin).
func (s Spec) Schedule(d sim.Duration) ([]sim.Time, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if d <= 0 {
		return nil, fmt.Errorf("traffic: admission window %v must be positive", d)
	}
	rng := splitmix64{state: s.Seed}
	var out []sim.Time
	switch s.Shape {
	case ShapePoisson:
		var t int64
		for {
			t += expGapPs(&rng, s.Rate)
			if t >= int64(d) {
				break
			}
			out = append(out, sim.Time(t))
		}
	case ShapeBurst:
		// Generate in the compressed "on-time" domain at the boosted
		// within-burst rate, then time-warp into real time: on-time o maps
		// to burst number o/onDur at offset o mod onDur into that burst's
		// admission window. Every arrival therefore satisfies
		// arrival mod Period < OnFraction×Period, and the long-run rate is
		// exactly Rate.
		rateOn := s.Rate / s.OnFraction
		onDur := int64(float64(s.Period) * s.OnFraction)
		if onDur < 1 {
			onDur = 1
		}
		var o int64
		for {
			o += expGapPs(&rng, rateOn)
			real := (o/onDur)*int64(s.Period) + o%onDur
			if real >= int64(d) {
				break
			}
			out = append(out, sim.Time(real))
		}
	}
	return out, nil
}
