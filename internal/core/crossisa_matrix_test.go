package core_test

import (
	"fmt"
	"strings"
	"testing"

	"flick"
	"flick/internal/isa"
	"flick/internal/platform"
	"flick/internal/sim"
)

// buildAllISAs builds a machine carrying every registered board family —
// board 0 NxP, board 1 DSP, board 2 cmp — with a zero-rate fault spec so
// the migration.* counters are registered, and a trace so fault kinds are
// observable.
func buildAllISAs(t *testing.T, src string) *flick.System {
	t.Helper()
	params := platform.DefaultParams()
	params.Boards = 3
	params.BoardISAs = []string{"nxp", "dsp", "cmp"}
	params.Faults = "dma.fail=0" // never fires; registers migration.* counters
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"matrix.fasm": src},
		Obs:     &sim.Observer{TraceCap: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// matrixSource builds the crossing program for one ordered ISA pair: main
// (host) reaches src, src calls dst, dst adds 37 and everyone returns.
// For dst=cmp a one-instruction pad function first so the callee's entry
// lands at ≡2 (mod 8) — the compressed layout no fixed-width fetch
// alignment accepts.
func matrixSource(src, dst string) string {
	var b strings.Builder
	if src == "host" {
		b.WriteString(".func main isa=host\n    movi a0, 5\n    call y_fn\n    halt\n.endfunc\n")
	} else {
		b.WriteString(".func main isa=host\n    movi a0, 5\n    call x_fn\n    halt\n.endfunc\n")
		fmt.Fprintf(&b, ".func x_fn isa=%s\n    push ra\n    call y_fn\n    pop  ra\n    ret\n.endfunc\n", src)
	}
	if dst == "cmp" {
		b.WriteString(".func cmp_pad isa=cmp\n    ret\n.endfunc\n")
	}
	fmt.Fprintf(&b, ".func y_fn isa=%s\n    addi a0, a0, 37\n    ret\n.endfunc\n", dst)
	return b.String()
}

// TestMigrationBoundaryMatrix crosses every ordered ISA pair with a Flick
// call and asserts, per pair, the exact migration counter values and the
// fault kind raised at the boundary: a fetch-NX fault when the callee's
// entry satisfies the faulting core's alignment, a fetch-misaligned fault
// when it does not (cmp callees under NxP/DSP callers). Both kinds must
// migrate identically — the return value proves the call completed.
func TestMigrationBoundaryMatrix(t *testing.T) {
	names := isa.Names()
	for _, src := range names {
		for _, dst := range names {
			if src == dst {
				continue
			}
			t.Run(src+"_to_"+dst, func(t *testing.T) {
				sys := buildAllISAs(t, matrixSource(src, dst))
				ret, err := sys.RunProgram("main")
				if err != nil {
					t.Fatal(err)
				}
				if ret != 42 {
					t.Fatalf("ret = %d, want 42", ret)
				}

				// Exact migration counts for one out-and-back crossing.
				wantH2N, wantN2H, wantNX := 1, 0, 1 // host → board
				switch {
				case dst == "host": // board → host: reach the board first
					wantH2N, wantN2H, wantNX = 1, 1, 1
				case src != "host": // board → board: forwarded through the host
					wantH2N, wantN2H, wantNX = 2, 1, 2
				}
				st := sys.Runtime.Stats()
				if st.H2NCalls != wantH2N || st.N2HCalls != wantN2H || st.NXFaults != wantNX {
					t.Errorf("stats = %+v, want H2N=%d N2H=%d NX=%d", st, wantH2N, wantN2H, wantNX)
				}

				rep := sys.Report()
				for name, want := range map[string]uint64{
					"flick.h2n_calls":          uint64(wantH2N),
					"flick.n2h_calls":          uint64(wantN2H),
					"flick.nx_faults":          uint64(wantNX),
					"kernel.migrations":        uint64(wantNX),
					"migration.retries":        0,
					"migration.timeouts":       0,
					"migration.spurious_wakes": 0,
				} {
					found := false
					for _, c := range rep.Metrics.Counters {
						if c.Name == name {
							found = true
							if c.Value != want {
								t.Errorf("%s = %d, want %d", name, c.Value, want)
							}
						}
					}
					if !found {
						t.Errorf("metric %s not registered", name)
					}
				}

				// The boundary's fault kind, from the faulting core's trace
				// event. Host callers never misalign (byte-granular fetch);
				// board callers fault on the callee's entry address, and the
				// kind follows from that address modulo the caller's fetch
				// alignment.
				yVA, err := sys.Symbol("y_fn")
				if err != nil {
					t.Fatal(err)
				}
				if dst == "cmp" {
					if yVA%8 != 2 {
						t.Fatalf("cmp pad layout broke: y_fn at %#x, want ≡2 (mod 8)", yVA)
					}
				}
				if src != "host" {
					srcBackend, _ := isa.ByName(src)
					wantKind := "fetch-nx"
					if yVA%uint64(srcBackend.Align()) != 0 {
						wantKind = "fetch-misaligned"
					}
					var got []string
					for _, e := range rep.Events {
						if e.Kind == sim.KindFault && e.Addr == yVA && strings.HasSuffix(e.Note, "→ board handler") {
							got = append(got, strings.TrimSpace(strings.TrimSuffix(e.Note, "→ board handler")))
						}
					}
					if len(got) != 1 || got[0] != wantKind {
						t.Errorf("boundary fault kinds at y_fn = %v, want exactly one %q", got, wantKind)
					}
					// The compressed callee must actually exercise the
					// misaligned path under fixed-width callers.
					if dst == "cmp" && wantKind != "fetch-misaligned" {
						t.Errorf("nxp/dsp → cmp crossing did not misalign (y_fn at %#x)", yVA)
					}
				}
			})
		}
	}
}

// TestMisalignedReturnPath: the caller side of a cmp→nxp crossing resumes
// at a ≡2 (mod 8) return address inside cmp text after the callee comes
// back — the resume context must restore the compressed PC exactly, not
// round it to a fixed-width boundary.
func TestMisalignedReturnPath(t *testing.T) {
	sys := buildAllISAs(t, `
.func main isa=host
    movi a0, 5
    call c_fn
    halt
.endfunc
.func c_pad isa=cmp
    ret
.endfunc
.func c_fn isa=cmp
    push ra
    call n_fn            ; crossing out of odd-aligned text
    addi a0, a0, 1       ; resumes at a 2-byte-aligned PC
    pop  ra
    ret
.endfunc
.func n_fn isa=nxp
    muli a0, a0, 8
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 41 {
		t.Errorf("ret = %d, want 41", ret)
	}
	if va, _ := sys.Symbol("c_fn"); va%8 != 2 {
		t.Errorf("c_fn at %#x, want odd compressed alignment", va)
	}
	// main→cmp, cmp→nxp forwarded through the host: 2 H2N + 1 N2H.
	if st := sys.Runtime.Stats(); st.H2NCalls != 2 || st.N2HCalls != 1 {
		t.Errorf("stats = %+v", st)
	}
}
