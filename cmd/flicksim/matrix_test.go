package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactMatrix is every byte-identity guarantee flicksim makes, as
// one table. A cell is one flicksim invocation, its base run at -jobs 8,
// together with the outputs it captures (stdout always, -metrics-out and
// -trace-out when asked) and the relations those outputs must hold:
//
//	J  -jobs 1 reproduces the base run
//	E  the reference engine (FLICKSIM_NOPREDECODE=1) reproduces it
//	N  -boards 1, and separately -board-isa nxp, reproduce it
//	G  stdout, and the metrics when captured, equal
//	   testdata/golden/<golden>.txt and <golden>.metrics.json (cells
//	   that name a golden)
//
// Every run must exit 0. A new axis or artifact is one more row; see
// docs/MATRIX.md.
func TestArtifactMatrix(t *testing.T) {
	for _, c := range matrix {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("Quick-scale paper artifact; runs without -short")
			}
			if c.slow && raceBuild {
				t.Skip("Quick-scale paper artifact; skipped under -race, where the whole matrix " +
					"takes about five times as long as without these cells")
			}
			base := c.run(t)
			if c.golden != "" {
				base.matchGolden(t, c.golden)
			}
			if c.rel&relJ != 0 {
				base.match(t, "-jobs 1", c.run(t, "-jobs", "1"))
			}
			if c.rel&relN != 0 {
				base.match(t, "-boards 1", c.run(t, "-boards", "1"))
				base.match(t, "-board-isa nxp", c.run(t, "-board-isa", "nxp"))
			}
			if c.rel&relE != 0 {
				t.Setenv("FLICKSIM_NOPREDECODE", "1") // restored when the cell ends
				base.match(t, "reference engine", c.run(t))
			}
		})
	}
}

// The fault specs the matrix runs, both at fault seed 7: A is the
// golden faulted artifact's, B adds IPI loss and spurious faults, which
// every core draws from its own stream.
const (
	specA = "-faults dma.fail=0.05,msi.drop=0.1,dma.dup=0.05 -fault-seed 7 "
	specB = "-faults dma.fail=0.05,msi.drop=0.1,ipi.drop=0.2,cpu.spurious=0.01 -fault-seed 7 "
)

// relation is a set of the J, E and N relations; G is a cell's golden.
type relation uint8

const (
	relJ relation = 1 << iota
	relE
	relN
)

// matrixCell is one row: a flicksim argument list, what it captures and
// the relations its outputs hold.
type matrixCell struct {
	name    string
	args    string // flicksim arguments, space-separated
	metrics bool   // capture -metrics-out
	trace   bool   // capture -trace-out
	rel     relation
	golden  string // testdata/golden base name: relation G
	slow    bool   // skipped under -short
}

var matrix = []matrixCell{
	{name: "fig5a", args: "fig5a", metrics: true, trace: true, rel: relJ | relE, golden: "fig5a"},
	{name: "fig5a-table4-specA", args: specA + "fig5a table4", metrics: true, rel: relJ, golden: "fault", slow: true},
	{name: "fig5a-table4-specB", args: specB + "fig5a table4", metrics: true, trace: true, rel: relE, slow: true},
	{name: "scaleout-round-robin", args: "-board-policy round-robin scaleout", rel: relJ},
	{name: "scaleout-least-loaded", args: "-board-policy least-loaded scaleout", rel: relJ},
	{name: "scaleout-affinity", args: "-board-policy affinity scaleout", rel: relJ},
	{name: "scaleout", args: "scaleout", metrics: true, trace: true, rel: relE},
	{name: "scaleout-boards3", args: "-boards 3 scaleout", metrics: true, golden: "scaleout-b3"},
	{name: "scaleout-cmp", args: "-board-isa cmp scaleout", metrics: true, trace: true, rel: relE},
	{name: "traffic-boards1", args: "-boards 1 -duration 3ms traffic", rel: relJ},
	{name: "traffic-boards2", args: "-boards 2 -duration 3ms traffic", metrics: true, trace: true, rel: relJ | relE},
	{name: "traffic-boards3", args: "-boards 3 -duration 3ms traffic", rel: relJ},
	{name: "traffic-boards4", args: "-boards 4 -duration 3ms traffic", rel: relJ},
	{name: "traffic-specA", args: specA + "-duration 3ms traffic", rel: relJ},
	{name: "traffic-boards2-4ms", args: "-boards 2 -duration 4ms traffic", golden: "traffic-b2"},
	{name: "table3-tenants", args: "-iters 2 table3 tenants", metrics: true, trace: true, rel: relJ},
	{name: "table3", args: "-iters 2 table3", metrics: true, rel: relN},
	{name: "soak", args: "soak", rel: relJ},
	{name: "soak-boards3", args: "-boards 3 soak", rel: relJ | relE},
}

// outputs is what one run captured; metrics and trace are nil unless the
// cell captures them.
type outputs struct {
	stdout, metrics, trace []byte
}

// run invokes flicksim in-process for the cell, with extra flags placed
// after the cell's defaults (a repeated flag's last value wins), and
// fails the test unless it exits 0.
func (c matrixCell) run(t *testing.T, extra ...string) outputs {
	t.Helper()
	dir := t.TempDir()
	args := []string{"-quiet", "-jobs", "8"}
	if c.metrics {
		args = append(args, "-metrics-out", filepath.Join(dir, "metrics.json"))
	}
	if c.trace {
		args = append(args, "-trace-out", filepath.Join(dir, "trace.json"))
	}
	args = append(append(args, extra...), strings.Fields(c.args)...)
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("flicksim %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	o := outputs{stdout: []byte(stdout)}
	if c.metrics {
		o.metrics = readFile(t, filepath.Join(dir, "metrics.json"))
	}
	if c.trace {
		o.trace = readFile(t, filepath.Join(dir, "trace.json"))
	}
	return o
}

// match reports every captured output of the variant run that differs
// from the base run's.
func (o outputs) match(t *testing.T, variant string, v outputs) {
	t.Helper()
	sameBytes(t, variant+": stdout", o.stdout, v.stdout)
	sameBytes(t, variant+": metrics", o.metrics, v.metrics)
	sameBytes(t, variant+": trace", o.trace, v.trace)
}

// matchGolden compares stdout, and the metrics when captured, with the
// checked-in artifacts.
func (o outputs) matchGolden(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "golden")
	sameBytes(t, "golden "+name+".txt", readFile(t, filepath.Join(dir, name+".txt")), o.stdout)
	if o.metrics != nil {
		sameBytes(t, "golden "+name+".metrics.json", readFile(t, filepath.Join(dir, name+".metrics.json")), o.metrics)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameBytes fails the test with the first differing line when want and
// got differ.
func sameBytes(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(wl) || i >= len(gl) || !bytes.Equal(wl[i], gl[i]) {
			t.Errorf("%s differs at line %d:\n want %s\n  got %s", what, i+1, lineAt(wl, i), lineAt(gl, i))
			return
		}
	}
}

// lineAt quotes line i, truncated, or marks it missing.
func lineAt(lines [][]byte, i int) string {
	if i >= len(lines) {
		return "<end of output>"
	}
	l := lines[i]
	if len(l) > 160 {
		l = l[:160]
	}
	return fmt.Sprintf("%q", l)
}
