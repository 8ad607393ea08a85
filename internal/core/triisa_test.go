package core_test

import (
	"strings"
	"testing"

	"flick"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/platform"
)

// buildDSP builds a three-ISA system (host + NxP + DSP, PTE-tagged
// execution).
func buildDSP(t *testing.T, src string) *flick.System {
	t.Helper()
	params := platform.DefaultParams()
	params.EnableDSP = true
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"tri.fasm": src},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHostToDSPMigration(t *testing.T) {
	sys := buildDSP(t, `
.func main isa=host
    movi a0, 20
    call on_dsp
    halt
.endfunc
.func on_dsp isa=dsp
    muli a0, a0, 2
    addi a0, a0, 2
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("ret = %d, want 42", ret)
	}
	if st := sys.Runtime.Stats(); st.H2NCalls != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestThreeISAsInOneProgram(t *testing.T) {
	// One thread visits all three ISAs: main (host) → square (nxp) →
	// back → scale (dsp) → back.
	sys := buildDSP(t, `
.func main isa=host
    movi a0, 3
    call nxp_square      ; 9, on the NxP
    call dsp_scale       ; 9*4+6 = 42, on the DSP
    halt
.endfunc
.func nxp_square isa=nxp
    mul a0, a0, a0
    ret
.endfunc
.func dsp_scale isa=dsp
    muli a0, a0, 4
    addi a0, a0, 6
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("ret = %d, want 42", ret)
	}
	if st := sys.Runtime.Stats(); st.H2NCalls != 2 {
		t.Errorf("expected one migration to each board core: %+v", st)
	}
}

func TestBoardToBoardCallRoutesThroughHost(t *testing.T) {
	// An NxP function calls a DSP function directly. The NxP core faults,
	// ships the call to the host; the host's attempt to execute DSP text
	// faults again and migrates onward to the DSP — two chained
	// migrations with no special-case code anywhere.
	sys := buildDSP(t, `
.func main isa=host
    movi a0, 5
    call on_nxp
    halt
.endfunc
.func on_nxp isa=nxp
    push ra
    addi a0, a0, 1       ; 6, on the NxP
    call on_dsp          ; board→board: faults through the host
    addi a0, a0, 100     ; back on the NxP
    pop  ra
    ret
.endfunc
.func on_dsp isa=dsp
    muli a0, a0, 7       ; 42, on the DSP
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 142 {
		t.Errorf("ret = %d, want 142", ret)
	}
	st := sys.Runtime.Stats()
	// main→nxp (1 H2N) + nxp→host hop (1 N2H) + host→dsp onward (1 H2N).
	if st.H2NCalls != 2 || st.N2HCalls != 1 {
		t.Errorf("stats = %+v, want 2 H2N + 1 N2H", st)
	}
}

func TestTriISARecursion(t *testing.T) {
	// Mutual recursion across all three ISAs: host → nxp → dsp → host...
	sys := buildDSP(t, `
.func main isa=host
    movi a0, 9
    call h_step
    halt
.endfunc
.func h_step isa=host
    beq  a0, zr, done
    push ra
    push a0
    addi a0, a0, -1
    call n_step
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
done:
    ret
.endfunc
.func n_step isa=nxp
    beq  a0, zr, done
    push ra
    push a0
    addi a0, a0, -1
    call d_step
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
done:
    ret
.endfunc
.func d_step isa=dsp
    beq  a0, zr, done
    push ra
    push a0
    addi a0, a0, -1
    call h_step
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
done:
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 45 { // 9+8+...+1
		t.Errorf("ret = %d, want 45", ret)
	}
}

func TestTaggedModeDataJumpFaultsCleanly(t *testing.T) {
	// In tagged mode, data pages are executable by NOBODY (tag 0): an NxP
	// jump into data faults at the permission check rather than decoding
	// garbage — the hardening the PTE tags buy beyond NX polarity.
	sys := buildDSP(t, `
.func main isa=host
    call on_nxp
    halt
.endfunc
.func on_nxp isa=nxp
    la   t0, blob
    jmpr t0              ; jump into data
    ret
.endfunc
.data blob isa=nxp align=8
    .word64 0x9696969696969696   ; bytes that look like NxP code
.enddata
`)
	_, err := sys.RunProgram("main")
	if err == nil || !strings.Contains(err.Error(), "fetch-nx") {
		t.Errorf("err = %v, want clean fetch permission fault", err)
	}
}

func TestDSPFasterThanNxP(t *testing.T) {
	// The 400 MHz DSP should finish compute-bound work about twice as
	// fast as the 200 MHz NxP.
	src := `
.func main isa=host
    ; a0 = mode: 0 → nxp, 1 → dsp
    bne  a0, zr, d
    call spin_nxp
    halt
d:
    call spin_dsp
    halt
.endfunc
.func spin_nxp isa=nxp
    movi t0, 2000
l:
    addi t0, t0, -1
    bne  t0, zr, l
    ret
.endfunc
.func spin_dsp isa=dsp
    movi t0, 2000
l:
    addi t0, t0, -1
    bne  t0, zr, l
    ret
.endfunc
`
	run := func(mode uint64) float64 {
		sys := buildDSP(t, src)
		if _, err := sys.RunProgram("main", mode); err != nil {
			t.Fatal(err)
		}
		return float64(sys.Now())
	}
	nxp, dsp := run(0), run(1)
	ratio := nxp / dsp
	// Both runs share the fixed migration cost, so the ratio is damped
	// below 2 but must clearly favor the DSP.
	if ratio < 1.15 {
		t.Errorf("nxp/dsp time ratio = %.2f, want the faster clock to show", ratio)
	}
}

func TestDSPTextWithoutDSPCoreRejected(t *testing.T) {
	// Without EnableDSP the DSP runtime isn't linked, so dsp code fails
	// at link (missing handler) or activation — either way, a clear error
	// instead of a hang.
	_, err := flick.Build(flick.Config{
		Sources: map[string]string{"t.fasm": `
.func main isa=host
    halt
.endfunc
.func f isa=dsp
    ret
.endfunc
`},
	})
	if err == nil {
		t.Fatal("dsp text accepted on a two-ISA platform")
	}
}

func TestTwoISAProgramStillWorksOnDSPPlatform(t *testing.T) {
	// Tagged mode must not disturb ordinary dual-ISA programs.
	sys := buildDSP(t, `
.func main isa=host
    movi a0, 21
    call dbl
    halt
.endfunc
.func dbl isa=nxp
    add a0, a0, a0
    ret
.endfunc
`)
	ret, err := sys.RunProgram("main")
	if err != nil || ret != 42 {
		t.Errorf("ret = %d, %v", ret, err)
	}
}

// TestDSPCoreOnDSPBoard builds the two-family machine whose board 0 is
// itself dsp and which also enables the DSP core: host and dsp only, so
// NX polarity, with two dsp cores on board 0. Both must execute dsp text
// (NX pages), so every call succeeds whichever core's scheduler takes it.
func TestDSPCoreOnDSPBoard(t *testing.T) {
	params := platform.DefaultParams()
	params.BoardISAs = []string{"dsp"}
	params.EnableDSP = true
	params.HostCores = 4
	sys, err := flick.Build(flick.Config{
		Params: &params,
		Sources: map[string]string{"t.fasm": `
.func main isa=host
    movi a0, 0
    call add2
    call add2
    call add2
    call add2
    call add2
    halt
.endfunc
.func add2 isa=dsp
    addi a0, a0, 2
    ret
.endfunc
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.TaggedISAs() {
		t.Fatal("host+dsp machine runs tagged; want NX polarity")
	}
	var tasks []*kernel.Task
	for i := 0; i < 4; i++ {
		task, err := sys.Start("main")
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if task.Err != nil || task.State != kernel.TaskDone || task.Ctx.Reg(isa.A0) != 10 {
			t.Errorf("task %d: state %v, exit %d, err %v; want done, 10, nil",
				i, task.State, task.Ctx.Reg(isa.A0), task.Err)
		}
	}
	if st := sys.Runtime.Stats(); st.H2NCalls != 20 {
		t.Errorf("H2NCalls = %d, want 20", st.H2NCalls)
	}
}
