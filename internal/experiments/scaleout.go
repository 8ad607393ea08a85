package experiments

import (
	"fmt"

	"flick/internal/platform"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/workloads"
)

// scaleOutTasks and scaleOutCalls size the scale-out workload: enough
// concurrent migrating threads to keep several boards busy, enough calls
// per thread to reach a steady state.
const (
	scaleOutTasks = 8
	scaleOutCalls = 12
)

// ScaleOutBoardCounts is the board-count sweep of the scale-out
// experiment.
var ScaleOutBoardCounts = []int{1, 2, 3, 4}

// ScaleOut renders the board scale-out throughput extension (beyond the
// paper): M concurrent host tasks migrate their calls across N boards
// (NxP unless BoardISAs names other families, which may be mixed) under
// the configured placement policy, and virtual-time throughput is
// reported against board count. One job per board count; each verifies
// the workload's built-in functional oracle, so the table doubles as a
// placement-correctness check.
func ScaleOut(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	type throughput struct {
		total sim.Duration
		calls int
	}
	names := make([]string, len(ScaleOutBoardCounts))
	for i, boards := range ScaleOutBoardCounts {
		names[i] = fmt.Sprintf("scaleout/boards=%d", boards)
	}
	rs, err := sweep(o, names, func(i int, obs *sim.Observer) (throughput, error) {
		p := platform.DefaultParams()
		if mp := o.machineParams(uint64(i)); mp != nil {
			p = *mp
		}
		p.Boards = ScaleOutBoardCounts[i]
		switch n := len(p.BoardISAs); {
		case n == 1:
			// A single entry means "every board in every sweep step
			// carries this family". (Replicating "nxp" matches the
			// default-padded machine exactly, so artifacts are unchanged
			// for it.)
			isas := make([]string, p.Boards)
			for j := range isas {
				isas[j] = p.BoardISAs[0]
			}
			p.BoardISAs = isas
		case n > p.Boards:
			// A longer list is cut to the step's boards, so entry i stays
			// board i; the platform pads a shorter one with nxp.
			p.BoardISAs = p.BoardISAs[:p.Boards]
		}
		total, calls, err := workloads.RunScaleOut(scaleOutTasks, scaleOutCalls, &p, obs)
		return throughput{total, calls}, err
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: board scale-out throughput",
		Headers: []string{"Boards", "Total time", "Aggregate calls/s", "Speedup"},
	}
	base := rs[0].total.Seconds()
	for i, boards := range ScaleOutBoardCounts {
		perSec := float64(rs[i].calls) / rs[i].total.Seconds()
		t.AddRow(boards,
			fmt.Sprintf("%.0fµs", rs[i].total.Seconds()*1e6),
			fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%.2fx", base/rs[i].total.Seconds()))
	}
	policy := o.BoardPolicy
	if policy == "" {
		policy = "round-robin"
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d host tasks × %d migrated ~2µs board jobs each, %s placement; every task's exit code is checked against the placement-independent oracle",
		scaleOutTasks, scaleOutCalls, policy))
	return t, nil
}
