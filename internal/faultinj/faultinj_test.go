package faultinj

import (
	"slices"
	"strings"
	"testing"

	"flick/internal/sim"
)

func TestParseSpec(t *testing.T) {
	spec, err := Parse("dma.fail=0.05,msi.delay=0.2:25us,ipi.drop=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(spec.Rules))
	}
	r := spec.Rules[1]
	if r.Site != "msi" || r.Kind != "delay" || r.Prob != 0.2 || r.Dur != 25*sim.Microsecond {
		t.Fatalf("rule[1] = %+v", r)
	}
	if got := spec.String(); got != "dma.fail=0.05,msi.delay=0.2:25us,ipi.drop=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestParseEmpty(t *testing.T) {
	spec, err := Parse("")
	if err != nil || !spec.Empty() {
		t.Fatalf("Parse(\"\") = %+v, %v", spec, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"dma.fail",                  // no probability
		"dmafail=0.5",               // no site.kind dot
		".fail=0.5",                 // empty site
		"dma.=0.5",                  // empty kind
		"dma.fail=2",                // prob out of range
		"dma.fail=-0.1",             // negative prob
		"dma.fail=x",                // non-numeric prob
		"msi.delay=0.5:10s",         // unsupported unit
		"msi.delay=0.5:zus",         // non-numeric duration
		"dma.fail=0.1,dma.fail=0.2", // duplicate clause
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestParseRejectsDegenerateDurations pins the duration validation at the
// parse layer: a zero or negative duration describes an injection that can
// never mean anything ("delay by nothing" silently degenerates to a pure
// wake reorder), so the spec must be refused up front — with the clause
// named — instead of simulating with Dur 0. Delay-type kinds additionally
// require the duration to be present at all.
func TestParseRejectsDegenerateDurations(t *testing.T) {
	tests := []struct {
		spec    string
		wantErr string // substring of the error; "" = must parse
	}{
		// Zero durations in every unit: previously parsed silently to Dur 0.
		{"msi.delay=0.5:0ns", "must be positive"},
		{"msi.delay=0.5:0us", "must be positive"},
		{"msi.delay=0.5:0ms", "must be positive"},
		{"dma.delay=1:0us", "must be positive"},
		// Unit-less and negative forms fail the grammar before the sign check.
		{"msi.delay=0.5:0", "bad duration"},
		{"msi.delay=0.5:-5", "bad duration"},
		{"msi.delay=0.5:-5us", "positive integer"},
		{"ipi.delay=1:-1ms", "positive integer"},
		// Delay-type kinds with the duration missing entirely.
		{"msi.delay=0.5", "needs a positive duration"},
		{"dma.delay=1", "needs a positive duration"},
		{"ipi.delay=0.2", "needs a positive duration"},
		// A zero duration is degenerate even on non-delay kinds.
		{"dma.fail=0.5:0ns", "must be positive"},
		// Positive controls: well-formed clauses still parse.
		{"msi.delay=0.5:1ns", ""},
		{"dma.delay=1:25us", ""},
		{"dma.fail=0.5", ""},
		{"cpu.spurious=0.001", ""},
	}
	for _, tt := range tests {
		_, err := Parse(tt.spec)
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("Parse(%q) = %v, want success", tt.spec, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tt.spec, tt.wantErr)
		} else if !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tt.spec, err, tt.wantErr)
		}
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var inj *Injector
	if inj.Roll("dma", "fail") {
		t.Fatal("nil Roll = true")
	}
	if d, ok := inj.Delay("msi", "delay"); ok || d != 0 {
		t.Fatal("nil Delay fired")
	}
	if inj.RollFn("cpu", "spurious", "host0") != nil {
		t.Fatal("nil RollFn != nil")
	}
	if inj.Enabled() {
		t.Fatal("nil Enabled = true")
	}
	if inj.Counts() != nil {
		t.Fatal("nil Counts != nil")
	}
}

func TestRollDeterministicPerSeed(t *testing.T) {
	spec, _ := Parse("dma.fail=0.3")
	draw := func(seed int64) []bool {
		inj := New(sim.NewEnv(), seed, spec)
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Roll("dma", "fail")
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed produced different draw sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical 64-draw sequences")
	}
}

// Streams are per (site, kind): drawing one rule must not perturb another,
// no matter the interleaving — this is what makes multi-site runs
// reproducible under scheduling changes.
func TestStreamsIndependent(t *testing.T) {
	spec, _ := Parse("dma.fail=0.5,msi.drop=0.5")
	solo := New(sim.NewEnv(), 3, spec)
	var dmaSolo []bool
	for i := 0; i < 32; i++ {
		dmaSolo = append(dmaSolo, solo.Roll("dma", "fail"))
	}
	mixed := New(sim.NewEnv(), 3, spec)
	var dmaMixed []bool
	for i := 0; i < 32; i++ {
		mixed.Roll("msi", "drop") // interleave draws on the other stream
		dmaMixed = append(dmaMixed, mixed.Roll("dma", "fail"))
	}
	for i := range dmaSolo {
		if dmaSolo[i] != dmaMixed[i] {
			t.Fatalf("draw %d: interleaving msi.drop changed dma.fail stream", i)
		}
	}
}

func TestRollRateRoughlyMatchesProb(t *testing.T) {
	spec, _ := Parse("dma.fail=0.25")
	inj := New(sim.NewEnv(), 99, spec)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if inj.Roll("dma", "fail") {
			hits++
		}
	}
	if hits < n/5 || hits > n*3/10 {
		t.Fatalf("hit rate %d/%d, want ~0.25", hits, n)
	}
}

func TestCountersAndEvents(t *testing.T) {
	env := sim.NewEnv()
	env.SetTraceCap(16)
	spec, _ := Parse("ipi.drop=1,msi.drop=0")
	inj := New(env, 1, spec)
	if !inj.Roll("ipi", "drop") {
		t.Fatal("prob=1 rule did not fire")
	}
	if inj.Roll("msi", "drop") {
		t.Fatal("prob=0 rule fired")
	}
	counters := make(map[string]uint64)
	present := make(map[string]bool)
	for _, s := range env.Metrics().Snapshot().Counters {
		counters[s.Name] = s.Value
		present[s.Name] = true
	}
	if counters["fault.injected.ipi.drop"] != 1 {
		t.Fatalf("ipi.drop counter = %d, want 1", counters["fault.injected.ipi.drop"])
	}
	// Zero-rate rules still pre-register their counter so snapshots
	// enumerate every injectable fault.
	if !present["fault.injected.msi.drop"] || counters["fault.injected.msi.drop"] != 0 {
		t.Fatalf("msi.drop counter = %d (present=%v), want 0 present",
			counters["fault.injected.msi.drop"], present["fault.injected.msi.drop"])
	}
	found := false
	for _, ev := range env.Trace().Events() {
		if ev.Comp == "faultinj" && strings.Contains(ev.Note, "ipi.drop") {
			found = true
		}
	}
	if !found {
		t.Fatal("no faultinj trace event for injected ipi.drop")
	}
}

func TestDelayReturnsRuleDuration(t *testing.T) {
	spec, _ := Parse("msi.delay=1:25us")
	inj := New(sim.NewEnv(), 1, spec)
	d, ok := inj.Delay("msi", "delay")
	if !ok || d != 25*sim.Microsecond {
		t.Fatalf("Delay = %d, %v; want 25us, true", d, ok)
	}
	if _, ok := inj.Delay("dma", "delay"); ok {
		t.Fatal("Delay fired for unconfigured site")
	}
}

func TestRollFn(t *testing.T) {
	spec, _ := Parse("cpu.spurious=1")
	env := sim.NewEnv()
	inj := New(env, 1, spec)
	fn := inj.RollFn("cpu", "spurious", "host0")
	if fn == nil {
		t.Fatal("RollFn = nil for a configured rule")
	}
	env.Spawn("core", func(p *sim.Proc) {
		if !fn(p) {
			t.Error("RollFn for prob=1 rule did not fire")
		}
	})
	env.Run()
	if inj.RollFn("dma", "fail", "host0") != nil {
		t.Fatal("RollFn != nil for unconfigured rule")
	}
}

// TestRollFnPerInstance pins the per-instance streams: an instance's draws
// are the same however they interleave with another instance's, two
// instances draw differently, and both count into the rule's one counter.
func TestRollFnPerInstance(t *testing.T) {
	const n = 400
	draws := func(interleave bool) (a, b []bool, hits uint64) {
		spec, _ := Parse("cpu.spurious=0.3")
		env := sim.NewEnv()
		inj := New(env, 7, spec)
		fa, fb := inj.RollFn("cpu", "spurious", "host0"), inj.RollFn("cpu", "spurious", "nxp0")
		env.Spawn("cores", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a = append(a, fa(p))
				if interleave {
					b = append(b, fb(p))
				}
			}
			for i := 0; !interleave && i < n; i++ {
				b = append(b, fb(p))
			}
		})
		env.Run()
		return a, b, env.Metrics().Snapshot().Counter("fault.injected.cpu.spurious")
	}
	a1, b1, hits := draws(false)
	a2, b2, _ := draws(true)
	fired := 0
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatalf("draw %d depends on the interleaving: host0 %v/%v, nxp0 %v/%v", i, a1[i], a2[i], b1[i], b2[i])
		}
		for _, f := range []bool{a1[i], b1[i]} {
			if f {
				fired++
			}
		}
	}
	if slices.Equal(a1, b1) {
		t.Error("host0 and nxp0 drew the same sequence")
	}
	if fired == 0 || hits != uint64(fired) {
		t.Errorf("counter reads %d for %d fired draws", hits, fired)
	}
}
