package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flick"
	"flick/internal/platform"
	"flick/internal/sim"
)

// TestRandomCrossISAChainsProperty generates random call chains whose
// links are randomly annotated host or nxp, runs them through the full
// machine, and checks two properties against a Go model:
//
//  1. The computed value is identical (migration is semantically
//     transparent for arbitrary interleavings of the two ISAs).
//  2. The number of call migrations in each direction equals the number
//     of ISA changes along the chain in that direction — Flick migrates
//     exactly at boundaries, never elsewhere.
func TestRandomCrossISAChainsProperty(t *testing.T) {
	type op struct {
		mnem string
		eval func(x, c uint64) uint64
	}
	ops := []op{
		{"addi", func(x, c uint64) uint64 { return x + c }},
		{"xori", func(x, c uint64) uint64 { return x ^ c }},
		{"muli", func(x, c uint64) uint64 { return x * c }},
	}

	run := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)   // chain length
		isas := make([]bool, n) // true = nxp
		opIdx := make([]int, n)
		consts := make([]uint64, n)
		for i := 0; i < n; i++ {
			isas[i] = rng.Intn(2) == 1
			opIdx[i] = rng.Intn(len(ops))
			consts[i] = uint64(1 + rng.Intn(500))
		}

		// Generate the program: main → f0 → f1 → ... → f{n-1}.
		var sb strings.Builder
		sb.WriteString(".func main isa=host\n    call f0\n    halt\n.endfunc\n")
		for i := 0; i < n; i++ {
			target := "nxp"
			if !isas[i] {
				target = "host"
			}
			fmt.Fprintf(&sb, ".func f%d isa=%s\n", i, target)
			fmt.Fprintf(&sb, "    %s a0, a0, %d\n", ops[opIdx[i]].mnem, consts[i])
			if i+1 < n {
				sb.WriteString("    push ra\n")
				fmt.Fprintf(&sb, "    call f%d\n", i+1)
				sb.WriteString("    pop ra\n")
			}
			sb.WriteString("    ret\n.endfunc\n")
		}

		// Go model.
		x := uint64(7)
		for i := 0; i < n; i++ {
			x = ops[opIdx[i]].eval(x, consts[i])
		}
		wantH2N, wantN2H := 0, 0
		prevNxP := false // main is host
		for i := 0; i < n; i++ {
			if isas[i] && !prevNxP {
				wantH2N++
			}
			if !isas[i] && prevNxP {
				wantN2H++
			}
			prevNxP = isas[i]
		}

		sys, err := flick.Build(flick.Config{
			Sources: map[string]string{"chain.fasm": sb.String()},
		})
		if err != nil {
			return fmt.Errorf("seed %d: build: %w", seed, err)
		}
		ret, err := sys.RunProgram("main", 7)
		if err != nil {
			return fmt.Errorf("seed %d: run: %w", seed, err)
		}
		if ret != x {
			return fmt.Errorf("seed %d: result %d, model %d (chain %v)", seed, ret, x, isas)
		}
		st := sys.Runtime.Stats()
		if st.H2NCalls != wantH2N || st.N2HCalls != wantN2H {
			return fmt.Errorf("seed %d: migrations %d/%d, model %d/%d (chain %v)",
				seed, st.H2NCalls, st.N2HCalls, wantH2N, wantN2H, isas)
		}
		return nil
	}

	f := func(seed int64) bool {
		if err := run(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRandomTriISAChainsProperty extends the chain property to three ISAs:
// random links are host, nxp, or dsp, and the model counts migrations with
// the board→board hop rule (a direct board-A→board-B call costs one
// board→host migration plus one host→board migration).
func TestRandomTriISAChainsProperty(t *testing.T) {
	run := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		kinds := make([]int, n) // 0 host, 1 nxp, 2 dsp
		consts := make([]uint64, n)
		for i := range kinds {
			kinds[i] = rng.Intn(3)
			consts[i] = uint64(1 + rng.Intn(300))
		}
		names := []string{"host", "nxp", "dsp"}

		var sb strings.Builder
		sb.WriteString(".func main isa=host\n    call f0\n    halt\n.endfunc\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, ".func f%d isa=%s\n", i, names[kinds[i]])
			fmt.Fprintf(&sb, "    addi a0, a0, %d\n", consts[i])
			if i+1 < n {
				sb.WriteString("    push ra\n")
				fmt.Fprintf(&sb, "    call f%d\n", i+1)
				sb.WriteString("    pop ra\n")
			}
			sb.WriteString("    ret\n.endfunc\n")
		}

		want := uint64(3)
		for _, c := range consts {
			want += c
		}
		// Migration model over call edges.
		wantH2N, wantN2H := 0, 0
		prev := 0
		for _, k := range kinds {
			switch {
			case k == prev:
			case prev == 0: // host → board
				wantH2N++
			case k == 0: // board → host
				wantN2H++
			default: // board → other board: via host
				wantN2H++
				wantH2N++
			}
			prev = k
		}

		params := platform.DefaultParams()
		params.EnableDSP = true
		sys, err := flick.Build(flick.Config{
			Params:  &params,
			Sources: map[string]string{"tri.fasm": sb.String()},
		})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		ret, err := sys.RunProgram("main", 3)
		if err != nil {
			return fmt.Errorf("seed %d (%v): %w", seed, kinds, err)
		}
		if ret != want {
			return fmt.Errorf("seed %d: result %d, model %d (%v)", seed, ret, want, kinds)
		}
		st := sys.Runtime.Stats()
		if st.H2NCalls != wantH2N || st.N2HCalls != wantN2H {
			return fmt.Errorf("seed %d: migrations %d/%d, model %d/%d (%v)",
				seed, st.H2NCalls, st.N2HCalls, wantH2N, wantN2H, kinds)
		}
		return nil
	}
	f := func(seed int64) bool {
		if err := run(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMetricsTraceInvariantsProperty runs the same random cross-ISA
// chains with full observability enabled and checks that the metrics
// registry, the typed event trace, and the runtime's own counters are
// three views of one execution:
//
//   - every counted migration has exactly one migrate event of the right
//     direction, and both agree with Runtime.Stats();
//   - the kernel's migration count equals its emitted NX-fault events;
//   - every MMU's translation count equals its TLB's hits + misses
//     (Translate consults the TLB exactly once per translation);
//   - every DMA transfer counted has exactly one dma trace event;
//   - nothing was dropped from the trace, so the counts are exact.
func TestMetricsTraceInvariantsProperty(t *testing.T) {
	countEvents := func(events []sim.Event, match func(sim.Event) bool) uint64 {
		var n uint64
		for _, ev := range events {
			if match(ev) {
				n++
			}
		}
		return n
	}

	run := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		isas := make([]bool, n) // true = nxp
		var sb strings.Builder
		sb.WriteString(".func main isa=host\n    call f0\n    halt\n.endfunc\n")
		for i := 0; i < n; i++ {
			isas[i] = rng.Intn(2) == 1
			target := "host"
			if isas[i] {
				target = "nxp"
			}
			fmt.Fprintf(&sb, ".func f%d isa=%s\n", i, target)
			fmt.Fprintf(&sb, "    addi a0, a0, %d\n", 1+rng.Intn(100))
			if i+1 < n {
				sb.WriteString("    push ra\n")
				fmt.Fprintf(&sb, "    call f%d\n", i+1)
				sb.WriteString("    pop ra\n")
			}
			sb.WriteString("    ret\n.endfunc\n")
		}

		sys, err := flick.Build(flick.Config{
			Sources: map[string]string{"chain.fasm": sb.String()},
			Obs:     &sim.Observer{TraceCap: 1 << 20},
		})
		if err != nil {
			return fmt.Errorf("seed %d: build: %w", seed, err)
		}
		if _, err := sys.RunProgram("main", 1); err != nil {
			return fmt.Errorf("seed %d: run: %w", seed, err)
		}
		r := sys.Report()
		if r.Dropped != 0 {
			return fmt.Errorf("seed %d: trace dropped %d events at capacity 1<<20", seed, r.Dropped)
		}
		m := r.Metrics
		st := sys.Runtime.Stats()

		h2nEvents := countEvents(r.Events, func(ev sim.Event) bool {
			return ev.Kind == sim.KindMigrate && ev.Note == "h2n"
		})
		n2hEvents := countEvents(r.Events, func(ev sim.Event) bool {
			return ev.Kind == sim.KindMigrate && ev.Note == "n2h"
		})
		if got := m.Counter("flick.h2n_calls"); got != uint64(st.H2NCalls) || got != h2nEvents {
			return fmt.Errorf("seed %d: h2n counter %d, stats %d, events %d", seed, got, st.H2NCalls, h2nEvents)
		}
		if got := m.Counter("flick.n2h_calls"); got != uint64(st.N2HCalls) || got != n2hEvents {
			return fmt.Errorf("seed %d: n2h counter %d, stats %d, events %d", seed, got, st.N2HCalls, n2hEvents)
		}

		kernelFaultEvents := countEvents(r.Events, func(ev sim.Event) bool {
			return ev.Kind == sim.KindFault && ev.Comp == "kernel"
		})
		if got := m.Counter("kernel.migrations"); got != kernelFaultEvents {
			return fmt.Errorf("seed %d: kernel.migrations %d but %d kernel fault events", seed, got, kernelFaultEvents)
		}

		dmaEvents := countEvents(r.Events, func(ev sim.Event) bool { return ev.Kind == sim.KindDMA })
		if got := m.Counter("dma.transfers"); got != dmaEvents {
			return fmt.Errorf("seed %d: dma.transfers %d but %d dma events", seed, got, dmaEvents)
		}

		// Per-MMU: translations requested == TLB hits + misses. The TLB
		// unit name differs from the MMU's only in the component word
		// ("host0-immu" pairs with "host0-itlb").
		checkedMMUs := 0
		for _, c := range m.Counters {
			if !strings.HasPrefix(c.Name, "mmu.") || !strings.HasSuffix(c.Name, ".translates") {
				continue
			}
			unit := strings.TrimSuffix(strings.TrimPrefix(c.Name, "mmu."), ".translates")
			tlbUnit := strings.Replace(unit, "mmu", "tlb", 1)
			hits := m.Counter("tlb." + tlbUnit + ".hits")
			misses := m.Counter("tlb." + tlbUnit + ".misses")
			if c.Value != hits+misses {
				return fmt.Errorf("seed %d: %s = %d but %s hits+misses = %d+%d",
					seed, c.Name, c.Value, tlbUnit, hits, misses)
			}
			checkedMMUs++
		}
		if checkedMMUs < 4 { // host I/D + nxp I/D at minimum
			return fmt.Errorf("seed %d: only %d MMU translate counters registered", seed, checkedMMUs)
		}
		return nil
	}

	f := func(seed int64) bool {
		if err := run(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
