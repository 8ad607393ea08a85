package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture renders a minimal `go test -json` stream with one benchmark
// result per (name, metrics) pair, split across Output records the way
// test2json splits real streams (name in one record, numbers in the next).
// metrics maps unit -> value; ns/op is mandatory on real result lines so
// callers always include it.
func capture(t *testing.T, path string, results map[string]bench) string {
	t.Helper()
	repeated := make(map[string][]bench, len(results))
	for name, metrics := range results {
		repeated[name] = []bench{metrics}
	}
	return captureRuns(t, path, repeated)
}

// captureRuns is capture for a `go test -count N` stream: every benchmark
// gets one result line per entry of its list, in order.
func captureRuns(t *testing.T, path string, results map[string][]bench) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, lines := range results {
		for _, metrics := range lines {
			fmt.Fprintf(f, `{"Action":"output","Package":"p","Output":"%s         \t"}`+"\n", name)
			line := fmt.Sprintf("1000\\t        %.2f ns/op", metrics["ns/op"])
			for _, unit := range []string{"B/op", "allocs/op", "sim-instr/s", "windows/Minstr"} {
				if v, ok := metrics[unit]; ok {
					line += fmt.Sprintf("\\t       %.2f %s", v, unit)
				}
			}
			fmt.Fprintf(f, `{"Action":"output","Package":"p","Output":"%s\n"}`+"\n", line)
		}
	}
	return path
}

// nsOnly is shorthand for a benchmark that reports just ns/op.
func nsOnly(ns float64) bench { return bench{"ns/op": ns} }

func TestWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(70.0),
		"BenchmarkCoreStep/nxp":  nsOnly(70.0),
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(80.0), // +14.3%, inside the 15% limit
		"BenchmarkCoreStep/nxp":  nsOnly(50.0), // improvement
	})
	if code := run([]string{base, cur}); code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
}

func TestRegressionFails(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(70.0),
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(85.0), // +21.4%
	})
	if code := run([]string{base, cur}); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

// Repeated result lines are gated on their median: one outlier run that
// fails the gate on its own passes once the other runs outvote it, while
// a regression in most runs still fails.
func TestMedianAbsorbsOutlier(t *testing.T) {
	dir := t.TempDir()
	const name = "BenchmarkTimerWake"
	base := captureRuns(t, filepath.Join(dir, "base.json"), map[string][]bench{
		name: {nsOnly(200), nsOnly(190), nsOnly(260), nsOnly(205), nsOnly(195)}, // median 200
	})
	outlier := nsOnly(250) // +25%: fails on its own
	single := captureRuns(t, filepath.Join(dir, "single.json"), map[string][]bench{name: {outlier}})
	if code := run([]string{base, single}); code != 1 {
		t.Errorf("single outlier run: exit = %d, want 1", code)
	}
	repeated := captureRuns(t, filepath.Join(dir, "repeated.json"), map[string][]bench{
		name: {nsOnly(205), outlier, nsOnly(210), nsOnly(198), nsOnly(202)}, // median 205
	})
	if code := run([]string{base, repeated}); code != 0 {
		t.Errorf("outlier among typical runs: exit = %d, want 0", code)
	}
	slow := captureRuns(t, filepath.Join(dir, "slow.json"), map[string][]bench{
		name: {nsOnly(240), nsOnly(195), nsOnly(250), nsOnly(245), nsOnly(200)}, // median 240
	})
	if code := run([]string{base, slow}); code != 1 {
		t.Errorf("regression in most runs: exit = %d, want 1", code)
	}
}

// An even number of runs gates on the mean of the two middle values.
func TestMedianOfEvenCount(t *testing.T) {
	got := runs{"ns/op": {10, 40, 20, 30}}.median()["ns/op"]
	if got != 25 {
		t.Errorf("median of 10,40,20,30 = %v, want 25", got)
	}
}

// allocs/op is gated lower-is-better like ns/op but with an absolute
// slack: a big fractional jump on a tiny alloc count must not fail, while
// a real regression on a hot benchmark must.
func TestAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "allocs/op": 3598},
		"BenchmarkCoreStep/host":               {"ns/op": 70.0, "allocs/op": 2},
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "allocs/op": 3598},
		// +400% but only +8 absolute: inside allocSlack, must pass.
		"BenchmarkCoreStep/host": {"ns/op": 70.0, "allocs/op": 10},
	})
	if code := run([]string{base, cur}); code != 0 {
		t.Errorf("small absolute alloc growth: exit = %d, want 0", code)
	}
	cur = capture(t, filepath.Join(dir, "cur2.json"), map[string]bench{
		// +39% and far beyond the absolute slack: must fail.
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "allocs/op": 5000},
		"BenchmarkCoreStep/host":               {"ns/op": 70.0, "allocs/op": 2},
	})
	if code := run([]string{base, cur}); code != 1 {
		t.Errorf("real alloc regression: exit = %d, want 1", code)
	}
}

// Throughput metrics (unit ending in "/s") are gated higher-is-better: a
// drop beyond the threshold fails, a rise never does.
func TestThroughputGate(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "sim-instr/s": 6.4e6},
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "sim-instr/s": 8.0e6}, // faster: fine
	})
	if code := run([]string{base, cur}); code != 0 {
		t.Errorf("throughput gain: exit = %d, want 0", code)
	}
	cur = capture(t, filepath.Join(dir, "cur2.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "sim-instr/s": 4.0e6}, // -37.5%
	})
	if code := run([]string{base, cur}); code != 1 {
		t.Errorf("throughput drop: exit = %d, want 1", code)
	}
}

// Units outside the gated set (B/op, windows/Minstr) are informational:
// arbitrary swings must not fail the gate.
func TestUngatedUnitsNeverFail(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "B/op": 1000, "windows/Minstr": 100},
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "B/op": 90000, "windows/Minstr": 9000},
	})
	if code := run([]string{base, cur}); code != 0 {
		t.Errorf("ungated unit swing: exit = %d, want 0", code)
	}
}

// A metric present only in the baseline (e.g. the record predates a
// ReportMetric removal) is skipped, not fatal.
func TestMetricDroppedFromCurrentIsSkipped(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": {"ns/op": 70.0, "sim-instr/s": 6.4e6},
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkScaleOutThroughput/boards=4": nsOnly(70.0),
	})
	if code := run([]string{base, cur}); code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
}

// A benchmark only in the current capture must not fail the gate: a freshly
// added backend appears there before the checked-in baseline is refreshed.
func TestNewBenchmarkIsReportedNotFatal(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(70.0),
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(70.0),
		"BenchmarkCoreStep/cmp":  nsOnly(70.0), // new backend, absent from baseline
	})
	if code := run([]string{base, cur}); code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
}

// A benchmark in the baseline but absent from the current capture fails
// the gate: otherwise renaming a benchmark would drop it from the gate
// without anyone noticing.
func TestMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(70.0),
		"BenchmarkCoreStep/dsp":  nsOnly(70.0),
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkCoreStep/host": nsOnly(70.0),
	})
	if code := run([]string{base, cur}); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

// The -procs suffix varies with the runner's GOMAXPROCS and must not
// break name matching between captures from different machines.
func TestProcsSuffixStripped(t *testing.T) {
	dir := t.TempDir()
	base := capture(t, filepath.Join(dir, "base.json"), map[string]bench{
		"BenchmarkCoreStep/host-8": nsOnly(70.0),
	})
	cur := capture(t, filepath.Join(dir, "cur.json"), map[string]bench{
		"BenchmarkCoreStep/host-16": nsOnly(90.0),
	})
	if code := run([]string{base, cur}); code != 1 {
		t.Errorf("exit = %d, want 1 (suffix-stripped names should match and regress)", code)
	}
}

// Scientific-notation metric values (testing prints large ReportMetric
// values as e.g. 1.77e+07) must parse.
func TestScientificNotationParses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sci.json")
	lines := []string{
		`{"Action":"output","Package":"p","Output":"BenchmarkScaleOutThroughput/boards=1-8         \t"}`,
		`{"Action":"output","Package":"p","Output":"265\t   4402332 ns/op\t  1.77e+07 sim-instr/s\t 2870 allocs/op\n"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readBench(path)
	if err != nil {
		t.Fatal(err)
	}
	r := got["BenchmarkScaleOutThroughput/boards=1"]
	if r == nil {
		t.Fatalf("benchmark name not found in %v", got)
	}
	m := r.median()
	if m["sim-instr/s"] != 1.77e+07 {
		t.Errorf("sim-instr/s = %v, want 1.77e+07", m["sim-instr/s"])
	}
	if m["allocs/op"] != 2870 {
		t.Errorf("allocs/op = %v, want 2870", m["allocs/op"])
	}
}

func TestBadInputsExit2(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	good := capture(t, filepath.Join(dir, "good.json"), map[string]bench{"BenchmarkX": nsOnly(1)})
	for _, args := range [][]string{
		{},     // no files
		{good}, // one file
		{good, filepath.Join(dir, "missing.json")},
		{empty, good}, // no benchmark results
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
