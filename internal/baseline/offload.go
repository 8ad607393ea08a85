package baseline

import (
	"flick"
	"flick/internal/cpu"
	"flick/internal/sim"
)

// offloadSource measures explicit offload-style dispatch against Flick's
// transparent migration of the same null function. The offload path calls
// a native stub that ships the job by hand (no NX fault, no hijack); the
// Flick path is a plain cross-ISA `call`.
const offloadSource = `
.func main isa=host
    ; a0 = iterations, a1 = mode (0 flick, 1 offload)
    mov  t5, a0
    mov  t4, a1
    mov  a0, zr
    call dispatch        ; warm-up
    sys  4
    mov  t3, a0
loop:
    call dispatch
    addi t5, t5, -1
    bne  t5, zr, loop
    sys  4
    sub  a0, a0, t3
    halt
.endfunc

.func dispatch isa=host
    push ra
    bne  t4, zr, off
    call nxp_null        ; Flick: transparent migration
    pop  ra
    ret
off:
    call offload_stub    ; offload: explicit job submission
    pop  ra
    ret
.endfunc

.func offload_stub isa=host
    native 110
.endfunc

.func nxp_null isa=nxp
    ret
.endfunc
`

// OffloadComparison is the transparent-vs-explicit measurement.
type OffloadComparison struct {
	Flick   sim.Duration // per round trip, via NX-fault migration
	Offload sim.Duration // per round trip, via explicit submission
	// TransparencyCost is what the page fault + handler hijack add — the
	// price of keeping the source code a plain function call.
	TransparencyCost sim.Duration
}

// RunOffloadComparison measures both dispatch styles over iters calls.
// The paper's argument (§III-B): gathering arguments and shipping them is
// necessary even for offload-style programming, so transparency costs only
// the fault handling itself.
func RunOffloadComparison(iters int) (OffloadComparison, error) {
	if iters <= 0 {
		iters = 1000
	}
	run := func(mode uint64) (sim.Duration, error) {
		sys, err := flick.Build(flick.Config{
			Sources: map[string]string{"offload.fasm": offloadSource},
		})
		if err != nil {
			return 0, err
		}
		defer sys.Close()
		target, err := sys.Symbol("nxp_null")
		if err != nil {
			return 0, err
		}
		sys.RegisterNative(110, func(p *sim.Proc, c *cpu.Core) error {
			ret, err := sys.Runtime.OffloadCall(p, c, target, c.Args())
			if err != nil {
				return err
			}
			c.Context().SetReg(0, ret)
			return nil
		})
		ns, err := sys.RunProgram("main", uint64(iters), mode)
		if err != nil {
			return 0, err
		}
		return sim.Duration(ns) * sim.Nanosecond / sim.Duration(iters), nil
	}
	fl, err := run(0)
	if err != nil {
		return OffloadComparison{}, err
	}
	off, err := run(1)
	if err != nil {
		return OffloadComparison{}, err
	}
	return OffloadComparison{Flick: fl, Offload: off, TransparencyCost: fl - off}, nil
}
