package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// renderScaleOut runs the scale-out experiment and returns its rendered
// table.
func renderScaleOut(t *testing.T, o Options) string {
	t.Helper()
	tab, err := ScaleOut(o)
	if err != nil {
		t.Fatal(err)
	}
	return tab.String()
}

// TestScaleOutDeterministicPerPolicy re-renders each policy's table twice:
// same options, same bytes — including for boards>1 machines.
func TestScaleOutDeterministicPerPolicy(t *testing.T) {
	for _, policy := range []string{"", "round-robin", "least-loaded", "affinity"} {
		o := tiny()
		o.Jobs = 4
		o.BoardPolicy = policy
		if first, second := renderScaleOut(t, o), renderScaleOut(t, o); first != second {
			t.Errorf("policy %q rendered different tables across identical runs", policy)
		}
	}
}

// TestScaleOutThroughputColumnIncreases parses the experiment's own
// artifact: the speedup column must be monotonically increasing in board
// count — the tentpole claim of the scale-out extension.
func TestScaleOutThroughputColumnIncreases(t *testing.T) {
	o := tiny()
	o.Jobs = 4
	tab, err := ScaleOut(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(ScaleOutBoardCounts) {
		t.Fatalf("%d rows, want %d", len(tab.Rows), len(ScaleOutBoardCounts))
	}
	prev := 0.0
	for i, row := range tab.Rows {
		speedup, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatalf("row %d speedup cell %q: %v", i, row[3], err)
		}
		if speedup <= prev {
			t.Errorf("boards=%s speedup %.2f not above previous %.2f", row[0], speedup, prev)
		}
		prev = speedup
	}
}
