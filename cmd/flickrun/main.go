// Command flickrun builds a Flick assembly program and executes it on the
// simulated heterogeneous-ISA machine, printing the console output,
// virtual-time cost, and migration statistics.
//
// Usage:
//
//	flickrun prog.fasm [args...]           # args are uint64s passed in a0..a5
//	flickrun -trace 40 prog.fasm
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"flick"
	"flick/internal/sim"
)

func main() {
	entry := flag.String("entry", "main", "entry symbol")
	traceN := flag.Int("trace", 0, "print the last N simulation events")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: flickrun [-entry sym] [-trace N] <file.fasm> [args...]")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var args []uint64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseUint(a, 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad argument %q: %w", a, err))
		}
		args = append(args, v)
	}

	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{path: string(src)},
		Entry:   *entry,
		Obs:     &sim.Observer{TraceCap: max(*traceN*16, 0)},
	})
	if err != nil {
		fatal(err)
	}
	ret, err := sys.RunProgram(*entry, args...)
	if out := sys.Console(); out != "" {
		fmt.Print(out)
		if out[len(out)-1] != '\n' {
			fmt.Println()
		}
	}
	if err != nil {
		fatal(err)
	}

	st := sys.Runtime.Stats()
	fmt.Printf("── %s returned %d after %v of virtual time\n", *entry, ret, sys.Now())
	fmt.Printf("── migrations: %d host→NxP calls, %d NxP→host calls (%d NX faults)\n",
		st.H2NCalls, st.N2HCalls, st.NXFaults)

	if *traceN > 0 {
		evs := sys.Machine.Env.Trace().Events()
		if len(evs) > *traceN {
			evs = evs[len(evs)-*traceN:]
		}
		fmt.Println("── trace tail:")
		for _, ev := range evs {
			fmt.Println("  ", ev)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flickrun:", err)
	os.Exit(1)
}
