package traffic

import (
	"math"
	"testing"

	"flick/internal/sim"
)

func TestParseShape(t *testing.T) {
	if s, err := ParseShape(""); err != nil || s != ShapePoisson {
		t.Errorf("empty shape = %v, %v; want poisson default", s, err)
	}
	for _, name := range []string{"poisson", "burst"} {
		if _, err := ParseShape(name); err != nil {
			t.Errorf("ParseShape(%q): %v", name, err)
		}
	}
	if _, err := ParseShape("uniform"); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Shape: ShapePoisson, Rate: 1000}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Rate: 0},
		{Rate: -5},
		{Rate: math.Inf(1)},
		{Shape: ShapeBurst, Rate: 1000, OnFraction: 1.5},
		{Shape: ShapeBurst, Rate: 1000, Period: -sim.Millisecond},
		{Shape: "weird", Rate: 1000},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
	if _, err := (Spec{Rate: 1000}).Schedule(0); err == nil {
		t.Error("zero window accepted")
	}
}

// TestPoissonMeanInterArrival checks the law of large numbers: the
// empirical mean gap over a long window converges to 1/Rate, across
// several seeds.
func TestPoissonMeanInterArrival(t *testing.T) {
	const rate = 100_000.0 // tasks/s → mean gap 10µs
	window := 200 * sim.Millisecond
	for seed := uint64(1); seed <= 5; seed++ {
		times, err := (Spec{Shape: ShapePoisson, Rate: rate, Seed: seed}).Schedule(window)
		if err != nil {
			t.Fatal(err)
		}
		n := len(times)
		if n < 1000 {
			t.Fatalf("seed %d: only %d arrivals in %v", seed, n, window)
		}
		meanGap := float64(times[n-1]) / float64(n-1) / 1e12 // seconds
		want := 1 / rate
		if rel := math.Abs(meanGap-want) / want; rel > 0.05 {
			t.Errorf("seed %d: mean gap %.3gs, want %.3gs ±5%% (rel err %.3f)", seed, meanGap, want, rel)
		}
	}
}

// TestScheduleDeterministicAndSorted pins the identical-seed property the
// artifact matrix relies on, plus monotonicity and the prefix property
// (a shorter window's schedule is a prefix of a longer one's).
func TestScheduleDeterministicAndSorted(t *testing.T) {
	for _, spec := range []Spec{
		{Shape: ShapePoisson, Rate: 50_000, Seed: 42},
		{Shape: ShapeBurst, Rate: 50_000, Seed: 42},
	} {
		a, err := spec.Schedule(20 * sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.Schedule(20 * sim.Millisecond)
		if len(a) != len(b) {
			t.Fatalf("%s: non-deterministic count %d vs %d", spec.Shape, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs: %v vs %v", spec.Shape, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: arrivals out of order at %d", spec.Shape, i)
			}
			if sim.Duration(a[i]) >= 20*sim.Millisecond {
				t.Fatalf("%s: arrival %d at %v outside the window", spec.Shape, i, a[i])
			}
		}
		short, _ := spec.Schedule(5 * sim.Millisecond)
		for i, at := range short {
			if at != a[i] {
				t.Fatalf("%s: prefix property broken at %d", spec.Shape, i)
			}
		}
	}
}

// TestSeedsAreIndependent: different seeds must give different schedules.
func TestSeedsAreIndependent(t *testing.T) {
	a, _ := (Spec{Rate: 50_000, Seed: 1}).Schedule(10 * sim.Millisecond)
	b, _ := (Spec{Rate: 50_000, Seed: 2}).Schedule(10 * sim.Millisecond)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("seeds 1 and 2 produced identical schedules")
		}
	}
}

// TestBurstShapeInvariants checks the on-off structure: every arrival
// falls inside the first OnFraction of its period, and the long-run rate
// still averages Rate.
func TestBurstShapeInvariants(t *testing.T) {
	spec := Spec{Shape: ShapeBurst, Rate: 100_000, Seed: 9, OnFraction: 0.25, Period: sim.Millisecond}
	window := 200 * sim.Millisecond
	times, err := spec.Schedule(window)
	if err != nil {
		t.Fatal(err)
	}
	onDur := sim.Duration(float64(spec.Period) * spec.OnFraction)
	for i, at := range times {
		if off := sim.Duration(at) % spec.Period; off >= onDur {
			t.Fatalf("arrival %d at %v lands %v into its period, outside the %v on-window", i, at, off, onDur)
		}
	}
	got := float64(len(times)) / window.Seconds()
	if rel := math.Abs(got-spec.Rate) / spec.Rate; rel > 0.10 {
		t.Errorf("long-run burst rate %.0f/s, want %.0f ±10%%", got, spec.Rate)
	}
	// The within-burst rate must exceed the long-run rate — that is the
	// point of a burst. Count arrivals in the first on-window that has any.
	perBurst := map[int64]int{}
	for _, at := range times {
		perBurst[int64(at)/int64(spec.Period)]++
	}
	want := spec.Rate * spec.Period.Seconds() // mean arrivals per period
	for burst, n := range perBurst {
		if float64(n) > 8*want {
			t.Fatalf("burst %d has %d arrivals, implausibly above the mean %f", burst, n, want)
		}
	}
}
