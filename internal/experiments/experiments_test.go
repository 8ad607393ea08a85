package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"flick/internal/sim"
)

// tiny returns options small enough for unit-test latency.
func tiny() Options {
	return Options{
		NullCallIters: 50,
		ChasePoints:   []int{8, 64},
		ChaseCalls:    2,
		BFSScale:      512,
		BFSIters:      1,
		Seed:          1,
	}
}

func TestTable2Artifact(t *testing.T) {
	tab, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"Flick (this work)", "Popcorn", "PCIe Gen3 x8", "µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) != 5 {
		t.Errorf("table2 rows = %d, want 5", len(tab.Rows))
	}
}

func TestTable3Artifact(t *testing.T) {
	tab, r, err := Table3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.HostNxPHost <= 0 || r.NxPHostNxP <= 0 {
		t.Errorf("result = %+v", r)
	}
	if !strings.Contains(tab.String(), "18.3µs") {
		t.Errorf("table3 output:\n%s", tab.String())
	}
}

func TestFig5Artifacts(t *testing.T) {
	a, err := Fig5a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != 3 {
		t.Errorf("fig5a series = %d, want 3", len(a.Series))
	}
	if !strings.Contains(a.String(), "Flick") {
		t.Error("fig5a missing legend")
	}
	b, err := Fig5b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Series[0].X) != 2 {
		t.Errorf("fig5b points = %d", len(b.Series[0].X))
	}
}

func TestTable4Artifact(t *testing.T) {
	tab, rows, err := Table4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The Table IV shape must hold even at tiny scale.
	if rows[0].Speedup >= 1 {
		t.Errorf("Epinions speedup = %.2f, want < 1", rows[0].Speedup)
	}
	if rows[1].Speedup <= 1 {
		t.Errorf("Pokec speedup = %.2f, want > 1", rows[1].Speedup)
	}
	if !strings.Contains(tab.String(), "Epinions1") {
		t.Error("table4 missing dataset name")
	}
}

func TestLatencyArtifact(t *testing.T) {
	tab, r, err := Latency(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "825ns") || !strings.Contains(out, "267ns") {
		t.Errorf("latency artifact off-calibration:\n%s", out)
	}
	if r.HostToNxPStorage <= r.NxPToLocalStorage || r.HostPageFault != 700*sim.Nanosecond {
		t.Errorf("result = %+v", r)
	}
}

func TestStubAblationArtifact(t *testing.T) {
	out := StubAblation().String()
	if !strings.Contains(out, "NX fault") || !strings.Contains(out, "stubs") {
		t.Errorf("stub ablation output:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var zero Options
	o, err := zero.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.NullCallIters == 0 || len(o.ChasePoints) == 0 || o.BFSScale == 0 || o.Seed == 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
	if o.Jobs != 1 {
		t.Errorf("default Jobs = %d, want 1 (serial)", o.Jobs)
	}
	full := Full()
	if full.BFSScale != 1 || full.NullCallIters != 10000 {
		t.Errorf("Full() = %+v", full)
	}
	if len(full.ChasePoints) != 256 {
		t.Errorf("full sweep points = %d, want 256 (4..1024 step 4)", len(full.ChasePoints))
	}
}

func TestOptionsExplicitValuesSurviveDefaulting(t *testing.T) {
	// Paper scale is 1 on every count field, which must never be
	// mistaken for "unset" (the zero-value collision the defaults guard
	// against).
	o, err := Options{NullCallIters: 1, ChaseCalls: 1, BFSScale: 1, BFSIters: 1, Jobs: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.NullCallIters != 1 || o.ChaseCalls != 1 || o.BFSScale != 1 || o.BFSIters != 1 {
		t.Errorf("explicit 1s overridden: %+v", o)
	}
}

func TestOptionsSeedZeroSentinel(t *testing.T) {
	o, err := Options{Seed: SeedZero}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Seed != 0 {
		t.Errorf("SeedZero mapped to %d, want literal 0", o.Seed)
	}
	o, err = Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Seed != Quick().Seed {
		t.Errorf("unset seed = %d, want the Quick default", o.Seed)
	}
}

func TestOptionsRejectNegativeCounts(t *testing.T) {
	for _, bad := range []Options{
		{NullCallIters: -1},
		{ChaseCalls: -3},
		{BFSScale: -64},
		{BFSIters: -1},
		{Jobs: -2},
		{Timeout: -time.Second},
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Errorf("options %+v accepted, want error", bad)
		}
	}
	// The error surfaces through the public experiment entry points too.
	if _, err := Table2(Options{NullCallIters: -1}); err == nil {
		t.Error("Table2 accepted negative options")
	}
}

func TestTenantsArtifact(t *testing.T) {
	tab, err := Tenants(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "Tenants") {
		t.Error("missing header")
	}
}

func TestKVStoreArtifact(t *testing.T) {
	tab, err := KVStore(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || !strings.Contains(tab.String(), "Batch") {
		t.Errorf("kv artifact:\n%s", tab.String())
	}
}

// TestRegistryIsTheAllSet pins Registry to the ten experiments `flicksim
// all` runs, in order. perfbench's paper workload iterates Registry, so a
// mode added to it would change what that workload measures; the modes
// outside `all` live in Modes.
func TestRegistryIsTheAllSet(t *testing.T) {
	want := []string{"table2", "table3", "breakdown", "latency", "fig5a", "fig5b", "table4", "stubs", "tenants", "kv"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("Registry ids = %v, want %v", got, want)
	}
	var modes []string
	for _, r := range Modes(TrafficOptions{}) {
		modes = append(modes, r.ID)
	}
	if want := []string{"scaleout", "soak", "traffic"}; !slices.Equal(modes, want) {
		t.Errorf("Modes ids = %v, want %v", modes, want)
	}
}
