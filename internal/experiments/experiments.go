// Package experiments regenerates every table and figure of the paper's
// evaluation section, and is the one place a sweep is defined. Each
// experiment names a list of independent, self-contained simulation jobs
// (one private machine per job, one derived seed per job) and runs them
// through sweep on the internal/runner scheduler, which returns the
// results in job order; the experiment assembles its artifact from that
// ordered list, so results are bit-identical for any Options.Jobs value.
// The flicksim CLI, the bench harness (bench_test.go), the examples and
// perfbench all call in here.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"flick/internal/baseline"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/workloads"
)

// SeedZero requests a literal zero RNG seed. The Seed field's zero value
// selects the default (Quick) seed — the usual Go zero-value collision —
// so seed 0 itself needs an explicit sentinel.
const SeedZero int64 = math.MinInt64

// Options tunes fidelity versus runtime. Zero values pick CI-friendly
// defaults; Full selects paper-scale parameters. All counts are
// meaningful only at >= 1: zero means "use the default" and negative
// values are rejected, so every explicitly-requestable value (including
// paper scale, which is always 1 or larger) stays expressible.
type Options struct {
	// NullCallIters is the Table II/III averaging count (paper: 10000).
	NullCallIters int
	// ChasePoints are the Figure 5 x-axis samples (paper: 4..1024 step 4).
	ChasePoints []int
	// ChaseCalls is the per-point averaging count.
	ChaseCalls int
	// BFSScale divides the Table IV dataset sizes (1 = paper scale; zero
	// selects the Quick default of 64, so request paper scale explicitly
	// with BFSScale: 1).
	BFSScale int
	// BFSIters is the Table IV averaging count (paper: 10).
	BFSIters int
	// Seed is the base RNG seed; every job derives its own independent
	// seed from it (runner.DeriveSeed). Zero selects the default seed;
	// use SeedZero to request a literal zero.
	Seed int64
	// Faults is a fault-injection spec (internal/faultinj grammar, e.g.
	// "dma.fail=0.05,msi.drop=0.1") applied to every simulated machine the
	// experiment builds. Empty disables injection entirely, leaving the
	// machines — and their metrics output — byte-identical to a build that
	// never heard of fault injection.
	Faults string
	// FaultSeed seeds the fault-injection streams; every job derives its
	// own stream seed from it, independent of the workload Seed. Zero
	// inherits Seed; use SeedZero to request a literal zero.
	FaultSeed int64
	// Boards sets the number of NxP boards every simulated machine is
	// built with (0 or 1 = the single-board default, leaving machines
	// byte-identical to a build that never heard of multiple boards). The
	// scale-out experiment sweeps its own board counts and ignores this.
	Boards int
	// BoardPolicy selects the kernel's board-placement policy
	// ("round-robin", "least-loaded", "affinity"; empty = round-robin).
	BoardPolicy string
	// BoardISAs sets each board's core family by registered backend name
	// (entry i → board i; empty entries and missing tails default to
	// "nxp"). Nil leaves machines byte-identical to a build that never
	// heard of board ISA selection.
	BoardISAs []string

	// Jobs is the scheduler's worker count: how many independent simulated
	// machines run concurrently. 0 or 1 runs serially. Virtual-time
	// results are identical for every value (see EXPERIMENTS.md).
	Jobs int
	// Timeout bounds one experiment's wall-clock runtime (0 = none).
	Timeout time.Duration
	// Progress observes job scheduling (nil = silent).
	Progress runner.ProgressFunc
	// Obs, when non-nil, collects every job's metrics and event trace.
	// Job slots are reserved here at graph-construction time (serially),
	// so the aggregate is byte-identical for any Jobs value.
	Obs *stats.Obs
}

// Quick returns options sized for seconds-scale runs.
func Quick() Options {
	points := make([]int, 0, 32)
	for n := 4; n <= 1024; n *= 2 {
		points = append(points, n, n+n/2)
	}
	return Options{
		NullCallIters: 1000,
		ChasePoints:   points,
		ChaseCalls:    4,
		BFSScale:      64,
		BFSIters:      1,
		Seed:          42,
	}
}

// Full returns paper-scale options (minutes of runtime).
func Full() Options {
	points := make([]int, 0, 256)
	for n := 4; n <= 1024; n += 4 {
		points = append(points, n)
	}
	return Options{
		NullCallIters: 10000,
		ChasePoints:   points,
		ChaseCalls:    6,
		BFSScale:      1,
		BFSIters:      10,
		Seed:          42,
	}
}

// withDefaults validates the options and fills zero values from Quick.
func (o Options) withDefaults() (Options, error) {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NullCallIters", o.NullCallIters},
		{"ChaseCalls", o.ChaseCalls},
		{"BFSScale", o.BFSScale},
		{"BFSIters", o.BFSIters},
		{"Jobs", o.Jobs},
	} {
		if f.v < 0 {
			return o, fmt.Errorf("experiments: %s = %d; counts must be >= 1 (or 0 for the default)", f.name, f.v)
		}
	}
	if o.Timeout < 0 {
		return o, fmt.Errorf("experiments: negative Timeout %v", o.Timeout)
	}
	if o.Boards < 0 {
		return o, fmt.Errorf("experiments: Boards = %d; must be >= 1 (or 0 for the single-board default)", o.Boards)
	}
	if _, err := kernel.ParseBoardPolicy(o.BoardPolicy); err != nil {
		return o, fmt.Errorf("experiments: %w", err)
	}
	if o.BoardISAs != nil {
		boards := o.Boards
		if boards < 1 {
			boards = 1
		}
		if _, err := platform.ParseBoardISAs(strings.Join(o.BoardISAs, ","), boards); err != nil {
			return o, fmt.Errorf("experiments: %w", err)
		}
	}
	q := Quick()
	if o.NullCallIters == 0 {
		o.NullCallIters = q.NullCallIters
	}
	if len(o.ChasePoints) == 0 {
		o.ChasePoints = q.ChasePoints
	}
	if o.ChaseCalls == 0 {
		o.ChaseCalls = q.ChaseCalls
	}
	if o.BFSScale == 0 {
		o.BFSScale = q.BFSScale
	}
	if o.BFSIters == 0 {
		o.BFSIters = q.BFSIters
	}
	switch o.Seed {
	case 0:
		o.Seed = q.Seed
	case SeedZero:
		o.Seed = 0
	}
	switch o.FaultSeed {
	case 0:
		o.FaultSeed = o.Seed
	case SeedZero:
		o.FaultSeed = 0
	}
	if o.Jobs == 0 {
		o.Jobs = 1
	}
	return o, nil
}

// machineParams builds the machine override for the job at the given
// graph position. It returns nil when no fault spec, board count, or
// placement policy is configured, so the default path hands workloads the
// same nil Params it always has. Each job's injection streams are seeded
// from (FaultSeed, position), so results are reproducible for any Jobs
// value.
func (o Options) machineParams(job uint64) *platform.Params {
	return o.faultParams(o.Faults, runner.DeriveSeed(o.FaultSeed, job))
}

// faultParams is machineParams with an explicit fault spec and seed: the
// Options' board count, policy and ISA list with faults seeded by seed, or
// nil for the default machine.
func (o Options) faultParams(faults string, seed int64) *platform.Params {
	if faults == "" && o.Boards <= 1 && o.BoardPolicy == "" && o.BoardISAs == nil {
		return nil
	}
	p := platform.DefaultParams()
	if faults != "" {
		p.Faults = faults
		p.FaultSeed = seed
	}
	if o.Boards > 1 {
		p.Boards = o.Boards
	}
	p.BoardPolicy = o.BoardPolicy
	p.BoardISAs = o.BoardISAs
	return &p
}

// sweep runs one job per name on the scheduler and returns the results in
// name order. Each job's observability slot is reserved here, serially and
// in name order, so the metrics and trace aggregates are the same for any
// Jobs value; fn runs job i with its observer (nil when Options.Obs is).
func sweep[T any](o Options, names []string, fn func(i int, obs *sim.Observer) (T, error)) ([]T, error) {
	jobs := make([]runner.Job[T], len(names))
	for i, name := range names {
		obs := o.Obs.Job(name)
		jobs[i] = runner.Job[T]{ID: i, Name: name, Run: func(context.Context) (T, error) { return fn(i, obs) }}
	}
	return runner.Run(context.Background(), runner.Pool{Workers: o.Jobs, Timeout: o.Timeout, OnEvent: o.Progress}, jobs)
}

func us(d sim.Duration) string { return fmt.Sprintf("%.1fµs", d.Microseconds()) }

// measureNullCall runs the two Table III phases as independent jobs and
// combines them exactly as the paper does (the reverse direction is
// isolated by subtraction).
func measureNullCall(o Options) (workloads.NullCallResult, error) {
	rs, err := sweep(o, []string{"nullcall/host-nxp-host", "nullcall/nested-return-trip"},
		func(i int, obs *sim.Observer) (sim.Duration, error) {
			cfg := workloads.NullCallConfig{Iterations: o.NullCallIters, Params: o.machineParams(uint64(i)), Obs: obs}
			return workloads.NullCallPhase(cfg, i == 1)
		})
	if err != nil {
		return workloads.NullCallResult{}, err
	}
	return workloads.NullCallResult{
		Iterations:  o.NullCallIters,
		HostNxPHost: rs[0],
		NxPHostNxP:  rs[1] - rs[0],
	}, nil
}

// Table2 reproduces "Thread migration overhead from prior work and Flick".
func Table2(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r, err := measureNullCall(o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table II: thread migration overhead from prior work and Flick",
		Headers: []string{"Work", "Fast Cores", "Slow Cores", "Interconnect", "Overhead", "vs Flick"},
	}
	for _, w := range baseline.Table2Rows {
		t.AddRow(w.Name, w.FastCores, w.SlowCores, w.Interconnect, us(w.Overhead),
			fmt.Sprintf("%.1fx", baseline.SpeedupOver(w, r.HostNxPHost)))
	}
	f := baseline.FlickRow
	t.AddRow(f.Name, f.FastCores, f.SlowCores, f.Interconnect, us(r.HostNxPHost), "1.0x")
	t.Notes = append(t.Notes,
		"prior-work overheads are the published values quoted in the paper; the Flick row is measured on this simulator")
	return t, nil
}

// Table3 reproduces "Flick thread migration round trip overhead".
func Table3(o Options) (*stats.Table, *workloads.NullCallResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	r, err := measureNullCall(o)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{
		Title:   "Table III: Flick thread migration round trip overhead",
		Headers: []string{"Host-NxP-Host", "NxP-Host-NxP"},
	}
	t.AddRow(us(r.HostNxPHost), us(r.NxPHostNxP))
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: 18.3µs / 16.9µs; averaged over %d calls", r.Iterations))
	return t, &r, nil
}

// fig5 runs one Figure 5 panel: every (line, sweep point) pair is one
// job, line-major. The three lines share per-point seeds so they sample
// identical chains at each x position.
func fig5(o Options, interval bool, tag, title string) (*stats.Chart, error) {
	lines := []struct {
		name  string
		extra sim.Duration
	}{
		{"Flick", 0},
		{"500µs migration", 500 * sim.Microsecond},
		{"1ms migration", sim.Millisecond},
	}
	n := len(o.ChasePoints)
	var names []string
	for _, ln := range lines {
		for _, nodes := range o.ChasePoints {
			names = append(names, fmt.Sprintf("%s/%s/n=%d", tag, ln.name, nodes))
		}
	}
	pts, err := sweep(o, names, func(i int, obs *sim.Observer) (workloads.PointerChasePoint, error) {
		seed := runner.DeriveSeed(o.Seed, uint64(i%n))
		return workloads.MeasureChasePoint(o.ChasePoints[i%n], o.ChaseCalls, lines[i/n].extra, interval,
			seed, o.machineParams(uint64(i)), obs)
	})
	if err != nil {
		return nil, err
	}
	series := make([]stats.Series, len(lines))
	for li, ln := range lines {
		series[li].Name = ln.name
		for _, p := range pts[li*n : (li+1)*n] {
			series[li].X = append(series[li].X, float64(p.Nodes))
			series[li].Y = append(series[li].Y, p.Normalized)
		}
	}
	return &stats.Chart{
		Title:  title,
		XLabel: "memory accesses per migration",
		YLabel: "normalized performance (baseline = 1)",
		HLines: []float64{1},
		Series: series,
	}, nil
}

// Fig5a reproduces the frequent-migration pointer-chasing panel.
func Fig5a(o Options) (*stats.Chart, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return fig5(o, false, "fig5a", "Figure 5a: pointer chasing, migration on every call")
}

// Fig5b reproduces the 100 µs-interval panel.
func Fig5b(o Options) (*stats.Chart, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return fig5(o, true, "fig5b", "Figure 5b: pointer chasing, one migration per 100µs")
}

// Table4 reproduces "BFS datasets and execution time". Each (dataset,
// mode) cell is one job, baseline first; the two modes of a dataset
// traverse one synthetic graph, generated from the dataset's derived seed
// by whichever of its jobs runs first and shared read-only with the other.
func Table4(o Options) (*stats.Table, []workloads.Table4Row, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	scaled := make([]workloads.Dataset, len(workloads.Table4Datasets))
	var names []string
	for di, d := range workloads.Table4Datasets {
		scaled[di] = d.Scale(o.BFSScale)
		names = append(names,
			fmt.Sprintf("table4/%s/baseline", scaled[di].Name),
			fmt.Sprintf("table4/%s/flick", scaled[di].Name))
	}
	// The first job of a dataset to ask generates its graph and leaves it
	// here for the other; the second takes it away, so a graph lives no
	// longer than its own dataset's two jobs.
	type share struct {
		sync.Mutex
		g *workloads.CSR
	}
	shares := make([]share, len(scaled))
	graph := func(di int) *workloads.CSR {
		s := &shares[di]
		s.Lock()
		defer s.Unlock()
		g := s.g
		if g == nil {
			g = workloads.GenerateRMAT(scaled[di], runner.DeriveSeed(o.Seed, uint64(di))+1)
			s.g = g
		} else {
			s.g = nil
		}
		return g
	}
	rs, err := sweep(o, names, func(i int, obs *sim.Observer) (sim.Duration, error) {
		r, err := workloads.RunBFS(workloads.BFSConfig{
			Dataset: scaled[i/2], Iterations: o.BFSIters, Baseline: i%2 == 0,
			Graph: graph(i / 2), Params: o.machineParams(uint64(i)), Obs: obs,
		})
		return r.PerIter, err
	})
	if err != nil {
		return nil, nil, err
	}

	t := &stats.Table{
		Title:   "Table IV: BFS datasets and execution time",
		Headers: []string{"Dataset", "Vertices", "Edges", "Baseline", "Flick", "Speedup"},
	}
	rows := make([]workloads.Table4Row, 0, len(scaled))
	for di, ds := range scaled {
		base, fl := rs[2*di], rs[2*di+1]
		row := workloads.Table4Row{
			Dataset:  ds,
			Baseline: base,
			Flick:    fl,
			Speedup:  float64(base) / float64(fl),
		}
		rows = append(rows, row)
		t.AddRow(ds.Name, ds.Vertices, ds.Edges,
			fmt.Sprintf("%.3fs", row.Baseline.Seconds()),
			fmt.Sprintf("%.3fs", row.Flick.Seconds()),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	if o.BFSScale > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"datasets scaled by 1/%d for runtime; speedup ratios are scale-invariant (see EXPERIMENTS.md)", o.BFSScale))
	}
	t.Notes = append(t.Notes, "paper speedups: 0.75x (Epinions1), 1.19x (Pokec), 1.09x (LiveJournal1)")
	return t, rows, nil
}

// Latency reproduces the §V access-latency measurements: the four timing
// loops are four jobs, and the page-fault constant is read from a fifth
// machine outside the pool (it runs nothing, so it takes no job slot).
func Latency(o Options) (*stats.Table, *workloads.LatencyResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	modes := []workloads.LatencyMode{
		workloads.LatencyHostLoads, workloads.LatencyHostNop, workloads.LatencyNxPLoads, workloads.LatencyNxPNop,
	}
	names := []string{"latency/host-loads", "latency/host-nop", "latency/nxp-loads", "latency/nxp-nop"}
	rs, err := sweep(o, names, func(i int, obs *sim.Observer) (sim.Duration, error) {
		return workloads.RunLatencyMode(modes[i], o.NullCallIters, o.machineParams(uint64(i)), obs)
	})
	if err != nil {
		return nil, nil, err
	}
	pf, err := workloads.PageFaultCost(o.machineParams(uint64(len(modes))))
	if err != nil {
		return nil, nil, err
	}
	iters := sim.Duration(o.NullCallIters)
	r := workloads.LatencyResult{
		HostToNxPStorage:  (rs[0] - rs[1]) / iters,
		NxPToLocalStorage: (rs[2] - rs[3]) / iters,
		HostPageFault:     pf,
	}
	t := &stats.Table{
		Title:   "§V access latencies",
		Headers: []string{"Path", "Measured", "Paper"},
	}
	t.AddRow("host → NxP storage (PCIe round trip)", fmt.Sprintf("%.0fns", r.HostToNxPStorage.Nanoseconds()), "825ns")
	t.AddRow("NxP → NxP storage (local DDR)", fmt.Sprintf("%.0fns", r.NxPToLocalStorage.Nanoseconds()), "267ns")
	t.AddRow("host NX page fault handling", fmt.Sprintf("%.1fµs", r.HostPageFault.Microseconds()), "0.7µs")
	return t, &r, nil
}

// StubAblation renders the §III-B analysis: NX-fault triggering vs
// compiler-inserted stubs. Pure cost-model arithmetic — no simulation
// jobs to schedule.
func StubAblation() *stats.Table {
	m := baseline.DefaultStubModel()
	t := &stats.Table{
		Title:   "Ablation: NX-fault trigger vs compiler-inserted stubs (§III-B)",
		Headers: []string{"Local calls per migration", "NX-fault total", "Stub total", "Winner"},
	}
	for _, ratio := range []int{0, 10, 100, 168, 1000, 10000} {
		nx, stub := m.ProgramOverhead(ratio, 1)
		winner := "stubs"
		if nx < stub {
			winner = "NX fault"
		} else if nx == stub {
			winner = "tie"
		}
		t.AddRow(ratio, nx.String(), stub.String(), winner)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"break-even at ≈%.0f local calls per migration; real programs sit far above it, and stubs also break shared libraries and function pointers",
		m.BreakEvenCallRatio()))
	return t
}

// Breakdown renders the component decomposition of the Host-NxP-Host
// round trip from the live cost model — the provenance of Table III's
// 18.3 µs. The sum is asserted against the measured round trip.
func Breakdown(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r, err := measureNullCall(o)
	if err != nil {
		return nil, err
	}
	comp, total := workloads.RoundTripBreakdown()
	t := &stats.Table{
		Title:   "Host→NxP→host round trip decomposition",
		Headers: []string{"Component", "Cost"},
	}
	for _, c := range comp {
		t.AddRow(c.Name, c.Cost)
	}
	t.AddRow("── modeled total", total)
	t.AddRow("── measured round trip", r.HostNxPHost)
	t.Notes = append(t.Notes, "paper: 18.3µs total with 0.7µs attributed to the page fault (§V-A)")
	return t, nil
}

// TenantCalls is how many migrated board jobs each tenant performs in the
// tenants experiment.
const TenantCalls = 12

// Tenants renders the multi-tenant NxP contention experiment (an extension
// beyond the paper): several host threads, one per host core, share the
// single board core through Flick migrations. One job per tenant count;
// the per-tenant slowdown column is computed from the ordered results
// after the pool drains.
func Tenants(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	type contention struct {
		total sim.Duration
		calls int
	}
	tenantCounts := []int{1, 2, 4, 8}
	names := make([]string, len(tenantCounts))
	for i, n := range tenantCounts {
		names[i] = fmt.Sprintf("tenants/%d", n)
	}
	rs, err := sweep(o, names, func(i int, obs *sim.Observer) (contention, error) {
		total, calls, err := workloads.RunMultiTenant(tenantCounts[i], TenantCalls, o.machineParams(uint64(i)), obs)
		return contention{total, calls}, err
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: multi-tenant NxP contention",
		Headers: []string{"Tenants", "Total time", "Aggregate calls/s", "Per-tenant slowdown"},
	}
	base := rs[0].total.Seconds()
	for i, tenants := range tenantCounts {
		perSec := float64(rs[i].calls) / rs[i].total.Seconds()
		t.AddRow(tenants,
			fmt.Sprintf("%.0fµs", rs[i].total.Seconds()*1e6),
			fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%.2fx", rs[i].total.Seconds()/base))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"each tenant performs %d migrated ~5µs board jobs; the single NxP serializes job bodies while migration phases overlap", TenantCalls))
	return t, nil
}

// KVStore renders the near-data key-value extension experiment: per-lookup
// latency versus migration batch size, one job per batch size.
func KVStore(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	batches := []int{1, 4, 16, 64}
	names := make([]string, len(batches))
	for i, b := range batches {
		names[i] = fmt.Sprintf("kv/batch=%d", b)
	}
	pts, err := sweep(o, names, func(i int, obs *sim.Observer) (workloads.KVPoint, error) {
		return workloads.MeasureKVPoint(batches[i], 128, runner.DeriveSeed(o.Seed, uint64(i)), o.machineParams(uint64(i)), obs)
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: near-data KV lookups vs batch size",
		Headers: []string{"Batch", "Flick/lookup", "Host-direct/lookup", "Normalized"},
	}
	for _, p := range pts {
		t.AddRow(p.Batch, p.Flick, p.Baseline, fmt.Sprintf("%.2fx", p.Normalized))
	}
	t.Notes = append(t.Notes, "the application-shaped form of Figure 5's work-per-migration axis")
	return t, nil
}
