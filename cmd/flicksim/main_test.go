package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestBoardsOneIsNoOp is the seed-compatibility gate at the CLI layer: a
// single-board run with the flags spelled out must be byte-identical to
// the same invocation without them.
func TestBoardsOneIsNoOp(t *testing.T) {
	render := func(extra ...string) (string, []byte) {
		dir := t.TempDir()
		mPath := filepath.Join(dir, "m.json")
		args := append([]string{"-iters", "2", "-quiet", "-metrics-out", mPath}, extra...)
		args = append(args, "table3")
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("args=%v exit = %d, stderr:\n%s", extra, code, stderr)
		}
		mb, err := os.ReadFile(mPath)
		if err != nil {
			t.Fatal(err)
		}
		return stdout, mb
	}
	plainOut, plainMetrics := render()
	flagOut, flagMetrics := render("-boards", "1")
	if plainOut != flagOut {
		t.Errorf("-boards 1 changed stdout:\n%s\nvs\n%s", plainOut, flagOut)
	}
	if !bytes.Equal(plainMetrics, flagMetrics) {
		t.Errorf("-boards 1 changed the metrics JSON:\n%s\nvs\n%s", plainMetrics, flagMetrics)
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

// TestBoardISANxpIsNoOp extends the seed-compatibility gate: spelling out
// the default board family must not change a single artifact byte.
func TestBoardISANxpIsNoOp(t *testing.T) {
	render := func(extra ...string) string {
		args := append([]string{"-iters", "2", "-quiet"}, extra...)
		args = append(args, "table3")
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
		}
		return stdout
	}
	plain := render()
	spelled := render("-board-isa", "nxp")
	if plain != spelled {
		t.Errorf("-board-isa nxp changed the artifact:\n--- plain ---\n%s\n--- spelled ---\n%s", plain, spelled)
	}
}
