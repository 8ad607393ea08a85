package workloads

import (
	"testing"

	"flick/internal/runner"
	"flick/internal/sim"
)

// chase measures one Figure 5 point per node count, seeding point i as the
// fig5 experiments do (runner.DeriveSeed(0, i)).
func chase(t *testing.T, nodes []int, calls int, extra sim.Duration, interval bool) []PointerChasePoint {
	t.Helper()
	pts := make([]PointerChasePoint, len(nodes))
	for i, n := range nodes {
		p, err := MeasureChasePoint(n, calls, extra, interval, runner.DeriveSeed(0, uint64(i)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = p
	}
	return pts
}

// bfsSpeedup runs one Table IV row, baseline and Flick on the same graph,
// and returns baseline/Flick.
func bfsSpeedup(t *testing.T, d Dataset, seed int64) float64 {
	t.Helper()
	g := GenerateRMAT(d, seed+1)
	base, err := RunBFS(BFSConfig{Dataset: d, Iterations: 1, Baseline: true, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := RunBFS(BFSConfig{Dataset: d, Iterations: 1, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	return float64(base.PerIter) / float64(fl.PerIter)
}

// TestTable3Calibration pins the headline reproduction: the Table III
// round-trip numbers. The windows are tight — ±0.5 µs around the paper's
// measurements.
func TestTable3Calibration(t *testing.T) {
	cfg := NullCallConfig{Iterations: 500}
	h2n, err := NullCallPhase(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	both, err := NullCallPhase(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	n2h := both - h2n // the reverse trip, isolated by subtraction as in the paper
	check := func(name string, got sim.Duration, wantUS float64) {
		lo := sim.Duration((wantUS - 0.5) * float64(sim.Microsecond))
		hi := sim.Duration((wantUS + 0.5) * float64(sim.Microsecond))
		if got < lo || got > hi {
			t.Errorf("%s = %v, want %.1fµs ± 0.5µs", name, got, wantUS)
		}
	}
	check("Host-NxP-Host", h2n, 18.3)
	check("NxP-Host-NxP", n2h, 16.9)
	if n2h >= h2n {
		t.Error("NxP-initiated trip should be cheaper (no host NX fault)")
	}
}

func TestNullCallExtraLatency(t *testing.T) {
	h2n, err := NullCallPhase(NullCallConfig{Iterations: 50, ExtraMigrationLatency: 500 * sim.Microsecond}, false)
	if err != nil {
		t.Fatal(err)
	}
	if h2n < 500*sim.Microsecond {
		t.Errorf("extra latency not applied: H2N = %v", h2n)
	}
}

func TestPointerChaseSteadyStateRatio(t *testing.T) {
	// Fig 5a right side: the benefit stabilizes around 2.6x — the
	// relative latency of host vs NxP access to the board DRAM.
	pts := chase(t, []int{512}, 4, 0, false)
	if r := pts[0].Normalized; r < 2.3 || r > 2.9 {
		t.Errorf("steady-state normalized perf = %.2f, want ≈2.6", r)
	}
}

func TestPointerChaseCrossover(t *testing.T) {
	// Fig 5a: Flick breaks even around 32 accesses per migration; far
	// below it loses badly, far above it wins.
	pts := chase(t, []int{4, 16, 32, 48, 64, 256}, 4, 0, false)
	byN := map[int]float64{}
	for _, p := range pts {
		byN[p.Nodes] = p.Normalized
	}
	if byN[4] > 0.5 {
		t.Errorf("n=4 normalized = %.2f, want far below 1 (migration dominated)", byN[4])
	}
	if byN[256] < 1.5 {
		t.Errorf("n=256 normalized = %.2f, want well above 1", byN[256])
	}
	// Crossover between 16 and 64.
	if !(byN[16] < 1 && byN[64] > 1) {
		t.Errorf("crossover outside [16,64]: n16=%.2f n64=%.2f", byN[16], byN[64])
	}
	// Monotone increase with n.
	for _, pair := range [][2]int{{4, 16}, {16, 32}, {32, 48}, {48, 64}, {64, 256}} {
		if byN[pair[0]] >= byN[pair[1]] {
			t.Errorf("normalized perf not increasing: n=%d %.2f vs n=%d %.2f",
				pair[0], byN[pair[0]], pair[1], byN[pair[1]])
		}
	}
}

func TestPointerChaseSlowMigrationNeedsFarMoreWork(t *testing.T) {
	// Fig 5a dashed lines: a 500 µs-migration system is still far below
	// baseline at 256 accesses per migration (where Flick is already
	// >2x ahead), and a 1 ms system hasn't reached baseline even at 1024.
	slow500 := chase(t, []int{256}, 2, 500*sim.Microsecond, false)
	if slow500[0].Normalized >= 0.7 {
		t.Errorf("500µs system at n=256: normalized %.2f, want well below baseline", slow500[0].Normalized)
	}
	slow1ms := chase(t, []int{1024}, 2, sim.Millisecond, false)
	if slow1ms[0].Normalized >= 1 {
		t.Errorf("1ms system reached baseline at n=1024 (%.2f)", slow1ms[0].Normalized)
	}
}

func TestPointerChaseIntervalReducesBenefit(t *testing.T) {
	// Fig 5b: with 100 µs of host work between migrations, the benefit
	// at large n drops to ≈2x, and the penalty at small n is milder.
	a := chase(t, []int{8, 1024}, 3, 0, false)
	b := chase(t, []int{8, 1024}, 3, 0, true)
	if !(b[1].Normalized < a[1].Normalized) {
		t.Errorf("interval did not reduce large-n benefit: %.2f vs %.2f", b[1].Normalized, a[1].Normalized)
	}
	if b[1].Normalized < 1.3 || b[1].Normalized > 2.5 {
		t.Errorf("Fig5b large-n normalized = %.2f, want ≈2", b[1].Normalized)
	}
	if !(b[0].Normalized > a[0].Normalized) {
		t.Errorf("interval did not soften the small-n penalty: %.2f vs %.2f", b[0].Normalized, a[0].Normalized)
	}
}

func TestRMATGeneratorProperties(t *testing.T) {
	d := Epinions1.Scale(16)
	g := GenerateRMAT(d, 7)
	if g.NumVertices() != d.Vertices {
		t.Errorf("V = %d, want %d", g.NumVertices(), d.Vertices)
	}
	if g.NumEdges() != d.Edges {
		t.Errorf("E = %d, want %d", g.NumEdges(), d.Edges)
	}
	// Full reachability from vertex 0 (the backbone guarantees it).
	visited, _ := ReferenceBFS(g, 0)
	if visited != d.Vertices {
		t.Errorf("reachable = %d of %d", visited, d.Vertices)
	}
	// Heavy-tailed degrees: the max degree must far exceed the average.
	maxDeg, avg := 0, float64(d.Edges)/float64(d.Vertices)
	for v := 0; v < d.Vertices; v++ {
		if deg := g.Degree(v); deg > maxDeg {
			maxDeg = deg
		}
	}
	if float64(maxDeg) < 8*avg {
		t.Errorf("max degree %d not heavy-tailed (avg %.1f)", maxDeg, avg)
	}
	// Determinism.
	g2 := GenerateRMAT(d, 7)
	for i := range g.Targets {
		if g.Targets[i] != g2.Targets[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestDatasetScale(t *testing.T) {
	s := Pokec.Scale(16)
	if s.Vertices != Pokec.Vertices/16 || s.Edges != Pokec.Edges/16 {
		t.Errorf("scaled = %+v", s)
	}
	if Pokec.Scale(1) != Pokec {
		t.Error("Scale(1) should be identity")
	}
}

// TestBFSCorrectAndEpinionsShape checks both correctness (the simulated
// traversal visits exactly the reference set) and the Table IV shape: on
// the Epinions1-like graph (low edge-to-vertex ratio) the per-vertex
// migration overhead makes Flick *slower* than the baseline.
func TestBFSCorrectAndEpinionsShape(t *testing.T) {
	speedup := bfsSpeedup(t, Epinions1.Scale(64), 3)
	if speedup >= 1 {
		t.Errorf("Epinions-shaped graph: Flick speedup = %.2f, paper has Flick losing (≈0.75)", speedup)
	}
	if speedup < 0.4 {
		t.Errorf("Flick loses too hard: %.2f", speedup)
	}
}

// TestBFSPokecShape: on the Pokec-like graph (high edge-to-vertex ratio)
// Flick wins despite migrating per discovered vertex.
func TestBFSPokecShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier BFS shape test")
	}
	speedup := bfsSpeedup(t, Pokec.Scale(256), 4)
	if speedup <= 1 {
		t.Errorf("Pokec-shaped graph: Flick speedup = %.2f, paper has Flick winning (≈1.19)", speedup)
	}
	if speedup > 1.6 {
		t.Errorf("speedup %.2f implausibly high", speedup)
	}
}

// TestBFSVisitCallAblation: without the per-vertex host call, Flick's BFS
// advantage grows to the raw memory-latency ratio.
func TestBFSVisitCallAblation(t *testing.T) {
	d := Epinions1.Scale(64)
	g := GenerateRMAT(d, 4)
	withCall, err := RunBFS(BFSConfig{Dataset: d, Iterations: 1, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunBFS(BFSConfig{Dataset: d, Iterations: 1, Graph: g, SkipVisitCall: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.PerIter >= withCall.PerIter {
		t.Errorf("dropping the per-vertex migration did not speed BFS up: %v vs %v",
			without.PerIter, withCall.PerIter)
	}
	if without.Migrations != 0 {
		t.Errorf("ablated run still migrated %d times", without.Migrations)
	}
}

func TestKVStoreCorrectness(t *testing.T) {
	// Both modes must return exactly the model's values (validated inside
	// RunKVStore via checksum).
	f, err := RunKVStore(KVConfig{Entries: 512, Queries: 64, Batch: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunKVStore(KVConfig{Entries: 512, Queries: 64, Batch: 8, Baseline: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f.Checksum != b.Checksum {
		t.Errorf("checksums diverge: %#x vs %#x", f.Checksum, b.Checksum)
	}
	if f.Migrations == 0 {
		t.Error("flick mode did not migrate")
	}
	if b.Migrations != 0 {
		t.Error("baseline migrated")
	}
}

func TestKVStoreBatchingTradeoff(t *testing.T) {
	// Single-query migration loses; large batches win (the near-data
	// version of Figure 5's crossover).
	var pts [2]KVPoint
	for i, batch := range []int{1, 64} {
		p, err := MeasureKVPoint(batch, 128, runner.DeriveSeed(5, uint64(i)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = p
	}
	if pts[0].Normalized >= 1 {
		t.Errorf("batch=1 normalized %.2f; per-query migration should lose", pts[0].Normalized)
	}
	if pts[1].Normalized <= 1 {
		t.Errorf("batch=64 normalized %.2f; batching should win", pts[1].Normalized)
	}
	if pts[1].Normalized <= pts[0].Normalized {
		t.Error("bigger batches must help")
	}
}

func TestKVStoreRejectsRaggedBatch(t *testing.T) {
	if _, err := RunKVStore(KVConfig{Queries: 10, Batch: 3}); err == nil {
		t.Error("ragged batch accepted")
	}
}

func TestLatencyMeasurements(t *testing.T) {
	const iters = 500
	var loops [4]sim.Duration
	for i, mode := range []LatencyMode{LatencyHostLoads, LatencyHostNop, LatencyNxPLoads, LatencyNxPNop} {
		d, err := RunLatencyMode(mode, iters, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		loops[i] = d
	}
	if got := (loops[0] - loops[1]) / iters; got < 800*sim.Nanosecond || got > 850*sim.Nanosecond {
		t.Errorf("host→NxP = %v, want ≈825ns", got)
	}
	if got := (loops[2] - loops[3]) / iters; got < 260*sim.Nanosecond || got > 275*sim.Nanosecond {
		t.Errorf("NxP local = %v, want ≈267ns", got)
	}
	pf, err := PageFaultCost(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pf != 700*sim.Nanosecond {
		t.Errorf("page fault = %v, want 0.7µs", pf)
	}
}

func TestBreakdownSumsToRoundTrip(t *testing.T) {
	comps, total := RoundTripBreakdown()
	if len(comps) < 8 {
		t.Fatalf("breakdown has %d components", len(comps))
	}
	h2n, err := NullCallPhase(NullCallConfig{Iterations: 300}, false)
	if err != nil {
		t.Fatal(err)
	}
	diff := total - h2n
	if diff < -300*sim.Nanosecond || diff > 300*sim.Nanosecond {
		t.Errorf("modeled total %v vs measured %v (diff %v): the decomposition drifted from the implementation", total, h2n, diff)
	}
}
