// Three ISAs in one binary: the paper's §IV-C3 extension, implemented.
//
// The two-ISA prototype distinguishes code with the NX bit alone; the
// paper notes that "for executables with more than two ISAs, the loader
// would have to use additional bits in the page table entries". This
// platform configuration does exactly that: a second board core (a 400 MHz
// "DSP") joins the 200 MHz NxP, and the loader tags every text page with
// an ISA id in the PTE's software-available bits. A thread wanders across
// all three cores through ordinary function calls — including a direct
// NxP→DSP call that transparently routes through the host.
//
// Run: go run ./examples/triisa
package main

import (
	"fmt"
	"log"

	"flick"
	"flick/internal/platform"
	"flick/internal/sim"
)

const program = `
; One pipeline, three ISAs: parse on the host, filter near the data on the
; NxP, transform on the DSP.

.func main isa=host
    movi a0, 12
    call stage_filter     ; host → NxP
    call stage_transform  ; host → DSP
    sys  3                ; print
    movi a0, 0
    halt
.endfunc

.func stage_filter isa=nxp
    push ra
    addi a0, a0, 3        ; 15, beside the board DRAM
    call stage_transform  ; NxP → DSP: faults through the host, no special code
    addi a0, a0, 1
    pop  ra
    ret
.endfunc

.func stage_transform isa=dsp
    muli a0, a0, 2        ; on the 400 MHz DSP
    ret
.endfunc
`

func main() {
	params := platform.DefaultParams()
	params.EnableDSP = true
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"triisa.fasm": program},
		Obs:     &sim.Observer{TraceCap: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.RunProgram("main"); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline result: %s", sys.Console())
	st := sys.Runtime.Stats()
	fmt.Printf("virtual time: %v — %d host→board and %d board→host call migrations\n",
		sys.Now(), st.H2NCalls, st.N2HCalls)
	fmt.Println("\nmigration trail (note the NxP→DSP call bouncing via the host):")
	for _, ev := range sys.Machine.Env.Trace().Filter(sim.KindFault) {
		fmt.Println("  ", ev)
	}
	fmt.Println("\nexecution-permission policy: PTE ISA tags (bits 52-54), not NX polarity —")
	fmt.Println("data pages are executable by NOBODY, and any number of ISAs can coexist.")
}
