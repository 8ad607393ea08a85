package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// smoke run spawns its repetitions.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Run: 0, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Run: 0, Name: "setup", Start: 10, End: 30},
		{ID: 3, Parent: 1, Run: 0, Name: "run", Start: 20, End: 60},   // overlaps setup
		{ID: 4, Parent: 3, Run: 0, Name: "check", Start: 50, End: 70}, // runs past its parent
		{ID: 5, Parent: 1, Run: 0, Name: "run", Start: 80, End: 90},
		{ID: 6, Run: 1, Name: "run", Start: 0, End: 1000}, // another run
	}
	got := selfTimes(spans, 0)
	want := map[string]time.Duration{
		"rep":   100 - (60 - 10) - (90 - 80), // children cover [10,60) and [80,90)
		"setup": 20,
		"run":   (40 - 10) + 10, // the check child covers [50,60) of it
		"check": 20,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %v, want only run 0's names", got)
	}
}

func TestAdoptRenumbersAndShifts(t *testing.T) {
	r := newRecorder()
	r.end(r.begin(0, -1, "probe", "x"))
	child := []span{{ID: 1, Name: "rep", Start: 5, End: 50}, {ID: 2, Parent: 1, Name: "run", Start: 10, End: 40}}
	all := r.adopt(r.origin.UnixNano()+1000, child)
	if len(all) != 3 || all[1].ID != 2 || all[2].ID != 3 || all[2].Parent != 2 || all[1].Parent != 0 {
		t.Fatalf("adopted spans %+v", all)
	}
	if all[2].Start != 1010 || all[2].End != 1040 {
		t.Errorf("adopted span at [%d,%d), want [1010,1040)", all[2].Start, all[2].End)
	}
}

func TestAttributionAndResidual(t *testing.T) {
	probeVals := map[string]float64{"cpu.block_ns": 10, "sim.handoff_ns": 500, "cpu.read_u64_virt_ns": 50}
	c := counts{Instret: 40e6, Queued: 1e6, DataTranslates: 2e6}
	a, ok := attribute(2, c, probeVals) // 2 s of simulation calls
	if !ok {
		t.Fatal("attribution refused complete inputs")
	}
	// 0.4 s, 0.5 s and 0.1 s of the 2 s: 20%, 25% and 5%, leaving 50%.
	for _, x := range []struct {
		name      string
		got, want float64
	}{{"cpu", a.cpu, 20}, {"sim", a.sim, 25}, {"mem", a.mem, 5}, {"unexplained", a.unexplained, 50}} {
		if math.Abs(x.got-x.want) > 1e-9 {
			t.Errorf("%s share %.12g%%, want %g%%", x.name, x.got, x.want)
		}
	}
	delete(probeVals, "sim.handoff_ns")
	if _, ok := attribute(2, c, probeVals); ok {
		t.Error("attribution without the handoff probe should be refused")
	}
}

func TestDigestStableAcrossRepetitionsAndSeeds(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) string {
				o, err := runRep(w, seed, tinySize, &phases{})
				if err != nil || o.failed != 0 {
					t.Fatalf("seed %d: %d of %d operations failed: %v", seed, o.failed, o.ops, err)
				}
				return o.digest
			}
			a, b, c := digest(5), digest(5), digest(6)
			if a != b {
				t.Errorf("seed 5 gave digests %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 5 and 6 share digest %s", a)
			}
		})
	}
}

func TestDefaultSeedReferencesRecorded(t *testing.T) {
	refs := map[string]map[string]string{}
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		if refs[w.name]["1"] == "" {
			t.Errorf("%s: default seed has no recorded reference", w.name)
		}
	}
	w, _ := lookupWorkload("compute")
	o, err := runRep(w, defaultSeed, fullSize, &phases{})
	if err != nil || o.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", o.failed, o.ops, err)
	}
	if want := refs["compute"]["1"]; o.digest != want {
		t.Errorf("compute default seed digest %s, recorded %s", o.digest, want)
	}
}

// TestProbeSelfChecksOnReferenceEngine runs the sim probes on the
// reference engine, where every sleep is queued: the in-place probe must
// report a failure instead of a number, and the handoff probe, whose path
// both engines share, must still measure.
func TestProbeSelfChecksOnReferenceEngine(t *testing.T) {
	t.Setenv("FLICKSIM_NOPREDECODE", "1")
	if v, err := probeSleepInPlace(); err == nil {
		t.Errorf("in-place sleep probe reported %v ns with every sleep queued", v)
	}
	if _, err := probeHandoff(); err != nil {
		t.Errorf("handoff probe: %v", err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke tests check the
// program against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// smoke runs the benchmark at tiny size, with every repetition in its own
// process, and checks that the printed result holds exactly the metrics
// BENCHMARK.json lists.
func smoke(t *testing.T, w workload, trace string, want []struct{ Name, Unit string }) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0", "-trace", trace, "-tiny", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %v %s, want a number in %s", m.Name, got.Value, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		var extra []string
		for name := range res.Metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		t.Errorf("printed %v, want exactly %v", extra, names)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) { smoke(t, w, "0", f.EndToEnd) })
	}
}

// TestSmokeTraced runs one workload whose machines the benchmark builds
// and paper, whose machines the experiments build.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take seconds")
	}
	f := readBenchmarkFile(t)
	for _, name := range []string{"traffic", "paper"} {
		w, _ := lookupWorkload(name)
		t.Run(name, func(t *testing.T) { smoke(t, w, "1", f.PerLayer) })
	}
}
