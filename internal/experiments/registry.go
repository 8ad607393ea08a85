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
	// AnyBoardISA says Run builds its guest images for whatever board
	// families the machine has. Every other runner's images carry NxP
	// text, so its machine needs an NxP board.
	AnyBoardISA bool
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
	{ID: "table2", Title: "Table II: migration overhead vs prior work", Run: table(Table2)},
	{ID: "table3", Title: "Table III: round-trip overhead", Run: table(tableOnly(Table3))},
	{ID: "breakdown", Title: "round-trip component decomposition", Run: table(Breakdown)},
	{ID: "latency", Title: "§V access latencies", Run: table(tableOnly(Latency))},
	{ID: "fig5a", Title: "Figure 5a: pointer chasing, migration per call", Run: chart(Fig5a)},
	{ID: "fig5b", Title: "Figure 5b: pointer chasing, migration per 100µs", Run: chart(Fig5b)},
	{ID: "table4", Title: "Table IV: BFS datasets and execution time", Run: table(tableOnly(Table4))},
	{ID: "stubs", Title: "ablation: NX fault vs compiler stubs", Run: table(func(Options) (*stats.Table, error) { return StubAblation(), nil })},
	{ID: "tenants", Title: "extension: multi-tenant NxP contention", Run: table(Tenants)},
	{ID: "kv", Title: "extension: near-data KV lookups vs batch size", Run: table(KVStore)},
}

// Modes lists the runs outside `all`, in the order flicksim lists them:
// the board scale-out extension, the fault-injection soak and the
// open-loop traffic mode, which runs with topt.
func Modes(topt TrafficOptions) []Runner {
	return []Runner{
		{ID: "scaleout", Title: "multi-board extension", Run: table(ScaleOut), AnyBoardISA: true},
		{ID: "soak", Title: "robustness gate", Run: Soak},
		{ID: "traffic", Title: "open-loop SLO mode", Run: func(o Options, w io.Writer) error { return Traffic(o, topt, w) }},
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
