// Quickstart: the smallest complete Flick program.
//
// A host thread calls a function annotated isa=nxp. The call's instruction
// fetch hits the NX bit, the kernel hijacks it into the migration handler,
// a descriptor DMAs across the simulated PCIe link, the NxP scheduler
// context-switches the thread in, and the return value arrives back as if
// the call had never left the host.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"flick"
	"flick/internal/sim"
)

const program = `
; The developer writes ordinary code and marks *where* each function runs.

.func main isa=host
    movi a0, 6
    movi a1, 7
    call multiply_near_data   ; ISA boundary: Flick migrates the thread
    sys  3                    ; print a0 (42)
    movi a0, 0
    halt
.endfunc

; This function executes on the 200 MHz NxP core beside the board DRAM.
.func multiply_near_data isa=nxp
    mul a0, a0, a1
    ret
.endfunc
`

func main() {
	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"quickstart.fasm": program},
		Obs:     &sim.Observer{TraceCap: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close() // ends the machine's parked goroutines once we are done reading it
	ret, err := sys.RunProgram("main")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("console output: %q\n", sys.Console())
	fmt.Printf("exit value:     %d\n", ret)
	fmt.Printf("virtual time:   %v\n", sys.Now())
	st := sys.Runtime.Stats()
	fmt.Printf("migrations:     %d host→NxP (from %d NX faults), %d NxP→host\n",
		st.H2NCalls, st.NXFaults, st.N2HCalls)

	fmt.Println("\nwhat happened, step by step:")
	for _, ev := range sys.Machine.Env.Trace().Events() {
		fmt.Println("  ", ev)
	}
}
