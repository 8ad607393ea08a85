package workloads

import (
	"testing"

	"flick/internal/platform"
	"flick/internal/sim"
	"flick/internal/traffic"
)

func TestTrafficExitOracle(t *testing.T) {
	if got := TrafficExit(0, 4); got != 6 { // 0+1+2+3
		t.Errorf("TrafficExit(0,4) = %d", got)
	}
	if got := TrafficExit(5, 4); got != 26 { // 4*5 + 6
		t.Errorf("TrafficExit(5,4) = %d", got)
	}
}

func TestRunTrafficPoissonCompletesEveryTask(t *testing.T) {
	r, err := RunTraffic(TrafficConfig{
		Arrival: traffic.Spec{Shape: traffic.ShapePoisson, Rate: 15_000, Seed: 3},
		Window:  2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks == 0 {
		t.Fatal("no tasks admitted")
	}
	if r.Failed != 0 || r.Completed != r.Tasks {
		t.Fatalf("%d/%d completed, %d failed", r.Completed, r.Tasks, r.Failed)
	}
	// Every task migrates exactly Calls times on the fault-free path, and
	// each migration is one observation in the latency histogram.
	if want := uint64(r.Tasks) * 4; r.MigCount != want {
		t.Errorf("MigCount = %d, want %d (tasks × calls)", r.MigCount, want)
	}
	if r.MigMeanNS <= 0 || r.MigP99NS < r.MigP50NS || r.MigP999NS < r.MigP99NS {
		t.Errorf("migration quantiles not monotone: mean %.0f p50 %d p99 %d p999 %d",
			r.MigMeanNS, r.MigP50NS, r.MigP99NS, r.MigP999NS)
	}
	if r.SojP50 <= 0 || r.SojP99 < r.SojP50 {
		t.Errorf("sojourn quantiles bad: p50 %v p99 %v", r.SojP50, r.SojP99)
	}
	if r.Makespan <= 0 || r.Achieved <= 0 {
		t.Errorf("makespan %v, achieved %.0f", r.Makespan, r.Achieved)
	}
	if len(r.Boards) != 1 || r.Boards[0].Dispatches != uint64(r.Tasks)*4 {
		t.Errorf("board load %+v", r.Boards)
	}
}

func TestRunTrafficDeterministic(t *testing.T) {
	cfg := TrafficConfig{
		Arrival: traffic.Spec{Shape: traffic.ShapeBurst, Rate: 20_000, Seed: 11},
		Window:  2 * sim.Millisecond,
	}
	a, err := RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Tasks != b.Tasks || a.MigP99NS != b.MigP99NS ||
		a.SojP999 != b.SojP999 || a.RunqPeak != b.RunqPeak {
		t.Errorf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

// TestRunTrafficThreeBoards drives concurrent task streams across three
// boards (the race-detector soak: `make race` runs this under -race) and
// checks the exit-code oracle holds under multi-board placement with every
// board actually serving load.
func TestRunTrafficThreeBoards(t *testing.T) {
	for _, policy := range []string{"round-robin", "least-loaded"} {
		params := platform.DefaultParams()
		params.Boards = 3
		params.BoardPolicy = policy
		r, err := RunTraffic(TrafficConfig{
			Arrival: traffic.Spec{Shape: traffic.ShapePoisson, Rate: 30_000, Seed: 5},
			Window:  2 * sim.Millisecond,
			Params:  &params,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if r.Failed != 0 {
			t.Fatalf("%s: %d lost calls", policy, r.Failed)
		}
		if len(r.Boards) != 3 {
			t.Fatalf("%s: %d boards", policy, len(r.Boards))
		}
		var total uint64
		for b, bl := range r.Boards {
			if bl.Dispatches == 0 {
				t.Errorf("%s: board %d served nothing", policy, b)
			}
			if bl.Busy <= 0 || bl.Util <= 0 || bl.Util > 1 {
				t.Errorf("%s: board %d busy %v util %v", policy, b, bl.Busy, bl.Util)
			}
			total += bl.Dispatches
		}
		if want := uint64(r.Tasks) * 4; total != want {
			t.Errorf("%s: %d total dispatches, want %d", policy, total, want)
		}
	}
}

// TestRunTrafficExitCodesPlacementInvariant: the sum of all exit codes (a
// pure function of the task population) must be identical for any board
// count — placement changes timing, never answers.
func TestRunTrafficExitCodesPlacementInvariant(t *testing.T) {
	spec := traffic.Spec{Shape: traffic.ShapePoisson, Rate: 12_000, Seed: 21}
	var tasks []int
	for _, boards := range []int{1, 2, 4} {
		params := platform.DefaultParams()
		params.Boards = boards
		r, err := RunTraffic(TrafficConfig{Arrival: spec, Window: 2 * sim.Millisecond, Params: &params})
		if err != nil {
			t.Fatalf("boards=%d: %v", boards, err)
		}
		if r.Failed != 0 {
			t.Fatalf("boards=%d: %d failed", boards, r.Failed)
		}
		tasks = append(tasks, r.Tasks)
	}
	if tasks[0] != tasks[1] || tasks[1] != tasks[2] {
		t.Errorf("admitted population varies with board count: %v", tasks)
	}
}

// TestRunTrafficSurvivesLostMSIs: a task whose return MSI is dropped
// takes its descriptor only at the kernel's timeout probe, 200µs later.
// At twice the capacity more than a ring's worth of returns is staged on
// its board meanwhile, and none may land in the slot it has yet to take:
// every task must exit with the oracle's value.
func TestRunTrafficSurvivesLostMSIs(t *testing.T) {
	for _, boards := range []int{1, 2} {
		params := platform.DefaultParams()
		params.Boards = boards
		params.Faults = "msi.drop=0.1"
		params.FaultSeed = 7
		r, err := RunTraffic(TrafficConfig{
			Arrival: traffic.Spec{Shape: traffic.ShapePoisson, Rate: 22_000 * float64(boards), Seed: 7},
			Window:  2 * sim.Millisecond,
			Params:  &params,
		})
		if err != nil {
			t.Fatalf("boards=%d: %v", boards, err)
		}
		if r.Failed != 0 {
			t.Errorf("boards=%d: %d of %d tasks failed", boards, r.Failed, r.Tasks)
		}
	}
}

func TestRunTrafficRejectsBadConfig(t *testing.T) {
	if _, err := RunTraffic(TrafficConfig{Arrival: traffic.Spec{Rate: -1}}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := RunTraffic(TrafficConfig{Arrival: traffic.Spec{Rate: 1}, Window: sim.Microsecond}); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := RunTraffic(TrafficConfig{Arrivals: []sim.Time{0}, Calls: -1}); err == nil {
		t.Error("negative calls accepted")
	}
}
