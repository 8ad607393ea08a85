// Pointer chasing: a condensed Figure 5a. Runs the fig5a experiment over
// a handful of memory-access counts per migration and prints the
// normalized performance of Flick (and of two emulated slower-migration
// systems) against a host that chases the pointers across PCIe without
// migrating.
//
// Run: go run ./examples/pointerchase
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"flick/internal/experiments"
	"flick/internal/stats"
)

func main() {
	o := experiments.Quick()
	o.ChasePoints = []int{4, 8, 16, 32, 48, 64, 128, 256, 512, 1024}
	o.ChaseCalls = 3
	o.Jobs = runtime.NumCPU()
	chart, err := experiments.Fig5a(o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("pointer chasing over 4 GB of board DRAM, normalized to the")
	fmt.Println("host-direct baseline (higher is better, 1.0 = baseline):")
	fmt.Println()

	table := &stats.Table{
		Headers: []string{"accesses/migration", "Flick", "500µs system", "1ms system"},
	}
	for j, n := range o.ChasePoints {
		row := []any{n}
		for _, s := range chart.Series {
			row = append(row, fmt.Sprintf("%.2fx", s.Y[j]))
		}
		table.AddRow(row...)
	}
	table.Render(os.Stdout)
	fmt.Println()
	chart.Render(os.Stdout, 72, 16)
	fmt.Println()
	fmt.Println("read it like the paper does: Flick breaks even around 32 accesses")
	fmt.Println("per migration and stabilizes near 2.6x; the slow-migration systems")
	fmt.Println("need far more work per migration to show any benefit at all.")
}
