package experiments

import (
	"bytes"
	"strings"
	"testing"

	"flick/internal/sim"
)

// renderTraffic runs the traffic mode and returns its rendered output.
func renderTraffic(t *testing.T, o Options, topt TrafficOptions) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Traffic(o, topt, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// shortTraffic keeps the sweep cheap: 2ms admission windows are enough to
// queue the machine hard at the top multipliers.
func shortTraffic() TrafficOptions {
	return TrafficOptions{Window: 2 * sim.Millisecond}
}

// TestTrafficSweepFindsTheKnee parses the sweep's own artifact: some row
// must carry the past-the-knee marker — the acceptance criterion that p99
// blows past trafficKneeFactor× the unloaded mean at high offered load.
func TestTrafficSweepFindsTheKnee(t *testing.T) {
	o := tiny()
	o.Jobs = 4
	out := renderTraffic(t, o, shortTraffic())
	if !strings.Contains(out, "← past") {
		t.Fatalf("no offered load crossed the knee:\n%s", out)
	}
	if !strings.Contains(out, "capacity ≈") || !strings.Contains(out, "knee criterion") {
		t.Errorf("sweep notes missing:\n%s", out)
	}
}

// TestTrafficSinglePointReport checks the fixed-rate mode: the full SLO
// report with the unloaded reference and knee check appended, PASS/FAIL
// driven by the -slo flag.
func TestTrafficSinglePointReport(t *testing.T) {
	o := tiny()
	o.Jobs = 1
	topt := shortTraffic()
	topt.Rate = 4000
	topt.SLO = 100 * sim.Millisecond // generous: must PASS
	out := renderTraffic(t, o, topt)
	for _, want := range []string{
		"Open-loop traffic: poisson arrivals",
		"p999", "run queue", "board 0",
		"unloaded   :", "knee check :",
		"SLO", "PASS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	topt.SLO = sim.Microsecond // impossible: must FAIL
	if out := renderTraffic(t, o, topt); !strings.Contains(out, "FAIL") {
		t.Errorf("1µs SLO did not FAIL:\n%s", out)
	}
}

// TestTrafficBurstShape runs the sweep under bursty arrivals — same
// determinism bar, same zero-lost-calls bar.
func TestTrafficBurstShape(t *testing.T) {
	o := tiny()
	o.Jobs = 4
	topt := shortTraffic()
	topt.Arrival = "burst"
	a := renderTraffic(t, o, topt)
	b := renderTraffic(t, o, topt)
	if a != b {
		t.Fatal("burst sweep not deterministic across identical runs")
	}
	if !strings.Contains(a, "burst arrivals") {
		t.Errorf("sweep title does not name the shape:\n%s", a)
	}
}

// TestTrafficComposesWithBoardsAndFaults drives the sweep on a 2-board
// machine with fault injection — traffic must stay deterministic and
// lossless when recovery paths fire.
func TestTrafficComposesWithBoardsAndFaults(t *testing.T) {
	o := tiny()
	o.Jobs = 4
	o.Boards = 2
	o.Faults = "dma.fail=0.1,dma.dup=0.1,dma.delay=0.25:2us"
	o.FaultSeed = 7
	topt := shortTraffic()
	a := renderTraffic(t, o, topt)
	b := renderTraffic(t, o, topt)
	if a != b {
		t.Fatal("faulted 2-board sweep not deterministic")
	}
}

// TestTrafficRejectsBadOptions pins the input validation.
func TestTrafficRejectsBadOptions(t *testing.T) {
	var buf bytes.Buffer
	o := tiny()
	topt := shortTraffic()
	topt.Arrival = "uniform"
	if err := Traffic(o, topt, &buf); err == nil {
		t.Error("unknown arrival shape accepted")
	}
	topt = shortTraffic()
	topt.Rate = -1
	if err := Traffic(o, topt, &buf); err == nil {
		t.Error("negative rate accepted")
	}
}
