// Near-data key-value store: the NxP scenario the paper's introduction
// motivates. A hash table lives in the device's DRAM; the host streams
// lookups against it. Flick migrates the lookup batch next to the table;
// the baseline probes it across PCIe. The batch size is the application-
// shaped version of Figure 5's "work per migration" axis. This runs the
// kv experiment (`flicksim kv`).
//
// Run: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"flick/internal/experiments"
)

func main() {
	o := experiments.Quick()
	o.Jobs = runtime.NumCPU()
	table, err := experiments.KVStore(o)
	if err != nil {
		log.Fatal(err)
	}
	table.Render(os.Stdout)

	fmt.Println()
	fmt.Println("per-query migration loses (one 18µs round trip per probe);")
	fmt.Println("batching a dozen or more lookups per migration flips it — the")
	fmt.Println("same break-even economics as the paper's Figure 5, arising in")
	fmt.Println("an application instead of a microbenchmark.")
}
