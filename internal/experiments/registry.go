package experiments

import (
	"io"

	"flick/internal/stats"
)

// Runner couples an experiment id to its artifact generator: Run runs the
// experiment's jobs and renders the assembled artifact to w.
type Runner struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

// chartSize is the plot area every chart-producing experiment renders at,
// shared by the CLI and the golden determinism tests.
const (
	chartWidth  = 72
	chartHeight = 18
)

// table adapts a table-producing experiment to Runner.Run.
func table(gen func(Options) (*stats.Table, error)) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		t, err := gen(o)
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
}

// chart adapts a chart-producing experiment to Runner.Run.
func chart(gen func(Options) (*stats.Chart, error)) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		c, err := gen(o)
		if err != nil {
			return err
		}
		c.Render(w, chartWidth, chartHeight)
		return nil
	}
}

// tableOnly drops the typed result an experiment returns beside its table.
func tableOnly[R any](gen func(Options) (*stats.Table, R, error)) func(Options) (*stats.Table, error) {
	return func(o Options) (*stats.Table, error) {
		t, _, err := gen(o)
		return t, err
	}
}

// Registry lists every experiment in presentation order — the order
// `flicksim all` regenerates them. It is exactly the `all` set.
var Registry = []Runner{
	{"table2", "Table II: migration overhead vs prior work", table(Table2)},
	{"table3", "Table III: round-trip overhead", table(tableOnly(Table3))},
	{"breakdown", "round-trip component decomposition", table(Breakdown)},
	{"latency", "§V access latencies", table(tableOnly(Latency))},
	{"fig5a", "Figure 5a: pointer chasing, migration per call", chart(Fig5a)},
	{"fig5b", "Figure 5b: pointer chasing, migration per 100µs", chart(Fig5b)},
	{"table4", "Table IV: BFS datasets and execution time", table(tableOnly(Table4))},
	{"stubs", "ablation: NX fault vs compiler stubs", table(func(Options) (*stats.Table, error) { return StubAblation(), nil })},
	{"tenants", "extension: multi-tenant NxP contention", table(Tenants)},
	{"kv", "extension: near-data KV lookups vs batch size", table(KVStore)},
}

// Modes lists the runs outside `all`, in the order flicksim lists them:
// the board scale-out extension, the fault-injection soak and the
// open-loop traffic mode, which runs with topt.
func Modes(topt TrafficOptions) []Runner {
	return []Runner{
		{"scaleout", "multi-board extension", table(ScaleOut)},
		{"soak", "robustness gate", Soak},
		{"traffic", "open-loop SLO mode", func(o Options, w io.Writer) error { return Traffic(o, topt, w) }},
	}
}

// IDs lists the registered experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, r := range Registry {
		ids[i] = r.ID
	}
	return ids
}
