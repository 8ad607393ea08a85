package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSoakSweepIncludesTrafficPhase runs the full default soak matrix —
// nested-migration fib plus one open-loop traffic scenario per fault kind
// — and asserts zero lost calls and worker-count-independent bytes.
func TestSoakSweepIncludesTrafficPhase(t *testing.T) {
	render := func(jobs int) string {
		o := tiny()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := Soak(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Fatalf("soak diverged:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "open-loop traffic") {
		t.Fatalf("soak output has no traffic phase:\n%s", serial)
	}
	for _, spec := range DefaultSoakSpecs() {
		if !strings.Contains(serial, spec.Name) {
			t.Errorf("soak output missing spec %q", spec.Name)
		}
	}
	if strings.Contains(serial, "FAIL") || strings.Contains(serial, "lost") && !strings.Contains(serial, "never lost") {
		t.Errorf("soak reported failures:\n%s", serial)
	}
}

// TestSoakHonorsBoards pins that every soak machine takes the Options'
// board count: the fault-free control row, which runs on the same machine
// as the reference run, ends at another time on three boards than on one.
func TestSoakHonorsBoards(t *testing.T) {
	controlEnd := func(boards int) string {
		o := tiny()
		o.Boards = boards
		o.Faults = "dma.delay=0.1:1us"
		var buf bytes.Buffer
		if err := Soak(o, &buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) == 7 && f[0] == "none" {
				return f[5] // End time
			}
		}
		t.Fatalf("no control row in the soak table:\n%s", buf.String())
		return ""
	}
	if one, three := controlEnd(1), controlEnd(3); one == three {
		t.Errorf("the control row ends at %s on one board and on three: soak ignored Options.Boards", one)
	}
}
