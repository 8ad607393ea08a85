package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runCLI invokes run() in-process and returns exit code, stdout, stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestNoArgsUsageExit2(t *testing.T) {
	code, stdout, stderr := runCLI(t)
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("usage leaked to stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "usage: flicksim") {
		t.Errorf("stderr missing usage:\n%s", stderr)
	}
}

func TestInvalidFlagExit2(t *testing.T) {
	code, _, stderr := runCLI(t, "-no-such-flag", "table3")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no-such-flag") {
		t.Errorf("stderr does not name the bad flag:\n%s", stderr)
	}
}

func TestUnknownExperimentExit2(t *testing.T) {
	code, _, stderr := runCLI(t, "-iters", "2", "nonesuch")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "nonesuch"`) {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestTable3Smoke(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-iters", "2", "-jobs", "2", "-timeout", "2m", "table3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Table III") {
		t.Errorf("stdout missing artifact:\n%s", stdout)
	}
	if !strings.Contains(stderr, "start") || !strings.Contains(stderr, "done") {
		t.Errorf("progress lines missing from stderr:\n%s", stderr)
	}
}

func TestQuietSuppressesProgress(t *testing.T) {
	code, _, stderr := runCLI(t, "-iters", "2", "-quiet", "table3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "start") {
		t.Errorf("-quiet still printed progress:\n%s", stderr)
	}
}

func TestBadBoardsExit2(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-quiet", "-boards", "0", "table3")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("error output leaked to stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "-boards") || !strings.Contains(stderr, "usage: flicksim") {
		t.Errorf("stderr missing flag name or usage:\n%s", stderr)
	}
}

func TestBadBoardPolicyExit2(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-quiet", "-board-policy", "bogus", "table3")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("error output leaked to stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "bogus") || !strings.Contains(stderr, "usage: flicksim") {
		t.Errorf("stderr missing bad value or usage:\n%s", stderr)
	}
}

func TestScaleOutSmoke(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-iters", "2", "-quiet", "-board-policy", "least-loaded", "scaleout")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "board scale-out") {
		t.Errorf("stdout missing scale-out artifact:\n%s", stdout)
	}
	if !strings.Contains(stdout, "least-loaded") {
		t.Errorf("table note does not name the policy:\n%s", stdout)
	}
}

// TestScaleOutBoardISAList runs scaleout with a multi-entry -board-isa
// list. Each sweep step takes the list's first entries for its boards, so
// entry i stays board i: the one-board step is the plain nxp machine, and
// from two boards up board 1 carries a cmp core, which serves its share
// of the calls and so shortens the run.
func TestScaleOutBoardISAList(t *testing.T) {
	mPath := filepath.Join(t.TempDir(), "metrics.json")
	code, stdout, stderr := runCLI(t, "-quiet", "-boards", "2", "-board-isa", "nxp,cmp", "-metrics-out", mPath, "scaleout")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	_, plain, _ := runCLI(t, "-quiet", "scaleout")
	row := func(table, boards string) []string {
		for _, line := range strings.Split(table, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == boards {
				return f
			}
		}
		t.Fatalf("no %s-board row in:\n%s", boards, table)
		return nil
	}
	if got, want := strings.Join(row(stdout, "1"), " "), strings.Join(row(plain, "1"), " "); got != want {
		t.Errorf("one-board row %q, want the plain run's %q", got, want)
	}
	micros := func(f []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "µs"), 64)
		if err != nil {
			t.Fatalf("total time %q: %v", f[1], err)
		}
		return v
	}
	if one, two := micros(row(stdout, "1")), micros(row(stdout, "2")); two >= one {
		t.Errorf("two boards took %.0fµs, one board %.0fµs: the cmp board served no calls", two, one)
	}
	mb, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(mb, &metrics); err != nil {
		t.Fatal(err)
	}
	if n := metrics.Counters["cpu.cmp1.instret"]; n == 0 {
		t.Error("the cmp core on board 1 retired no instructions")
	}
}

// TestMetricsAndTraceOut exercises the two output flags on a fast
// experiment and sanity-checks both files parse and carry real data.
func TestMetricsAndTraceOut(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "metrics.json")
	tPath := filepath.Join(dir, "trace.json")
	code, _, stderr := runCLI(t, "-iters", "2", "-quiet",
		"-metrics-out", mPath, "-trace-out", tPath, "table3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}

	mb, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Jobs     int               `json:"jobs"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(mb, &metrics); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if metrics.Jobs != 2 {
		t.Errorf("jobs = %d, want 2 (the two Table III phases)", metrics.Jobs)
	}
	for _, key := range []string{"kernel.migrations", "dma.transfers", "flick.h2n_calls"} {
		if metrics.Counters[key] == 0 {
			t.Errorf("counter %s is zero; counters:\n%s", key, mb)
		}
	}

	tb, err := os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &trace); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	var migrations int
	for _, ev := range trace.TraceEvents {
		if ev.Name == "migrate" {
			migrations++
		}
	}
	if migrations == 0 {
		t.Errorf("trace has no migrate events among %d events", len(trace.TraceEvents))
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpuOut := filepath.Join(dir, "cpu.pprof")
	memOut := filepath.Join(dir, "mem.pprof")
	code, stdout, stderr := runCLI(t,
		"-iters", "2", "-quiet", "-cpuprofile", cpuOut, "-memprofile", memOut, "table3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Table III") {
		t.Errorf("stdout missing artifact:\n%s", stdout)
	}
	for _, path := range []string{cpuOut, memOut} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", path)
		}
	}
}

func TestBadCPUProfilePathExit1(t *testing.T) {
	code, _, stderr := runCLI(t,
		"-iters", "2", "-quiet", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "p"), "table3")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "-cpuprofile") {
		t.Errorf("stderr does not name the flag:\n%s", stderr)
	}
}

func TestListPrintsExperimentsAndISAs(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"experiments:", "fig5a", "table4", "scaleout", "soak",
		"isas:", "host", "nxp", "dsp", "cmp"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list output missing %q:\n%s", want, stdout)
		}
	}
	if stderr != "" {
		t.Errorf("-list wrote to stderr:\n%s", stderr)
	}
}

func TestBadBoardISAExit2(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-quiet", "-board-isa", "riscv", "table3")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("error output leaked to stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, `"riscv"`) || !strings.Contains(stderr, "usage: flicksim") {
		t.Errorf("stderr missing bad value or usage:\n%s", stderr)
	}
	// The valid vocabulary is part of the diagnostic.
	if !strings.Contains(stderr, "cmp") || !strings.Contains(stderr, "nxp") {
		t.Errorf("stderr does not list the registered board ISAs:\n%s", stderr)
	}
}

func TestTooManyBoardISAsExit2(t *testing.T) {
	code, _, stderr := runCLI(t, "-quiet", "-boards", "2", "-board-isa", "nxp,nxp,cmp", "table3")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-board-isa") || !strings.Contains(stderr, "usage: flicksim") {
		t.Errorf("stderr missing flag name or usage:\n%s", stderr)
	}
}

// TestBadFaultSpecExit2: a malformed -faults spec must be refused before
// any experiment runs — in particular the degenerate "delay by zero"
// clauses that used to parse silently to a no-op duration.
func TestBadFaultSpecExit2(t *testing.T) {
	for _, bad := range []string{
		"msi.delay=0.5:0us",  // zero duration
		"msi.delay=0.5:-5us", // negative duration
		"msi.delay=0.5",      // delay kind with no duration at all
		"dma.fail",           // grammar error
	} {
		code, stdout, stderr := runCLI(t, "-quiet", "-faults", bad, "table3")
		if code != 2 {
			t.Errorf("-faults %q: exit = %d, want 2", bad, code)
		}
		if stdout != "" {
			t.Errorf("-faults %q: error output leaked to stdout:\n%s", bad, stdout)
		}
		if !strings.Contains(stderr, "-faults") || !strings.Contains(stderr, "usage: flicksim") {
			t.Errorf("-faults %q: stderr missing flag name or usage:\n%s", bad, stderr)
		}
	}
}

// TestHostRejectedAsBoardISA: the host family is not a board family; the
// flag must reject it rather than build a machine with two hosts.
func TestHostRejectedAsBoardISA(t *testing.T) {
	code, _, stderr := runCLI(t, "-quiet", "-board-isa", "host", "table3")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, `"host"`) {
		t.Errorf("stderr = %q", stderr)
	}
}
