package experiments

import (
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"flick/internal/sim"
)

// TestRepeatedRunsReleaseMachines runs fig5a and table3 three times in one
// process. Every machine an experiment builds is closed once its job has
// read its results, so each pass must end with the goroutine count back
// where it started and no more heap in use after a GC than the pass
// before it: a parked service goroutine keeps its whole machine, 4 GB of
// sparse board DRAM included, reachable.
func TestRepeatedRunsReleaseMachines(t *testing.T) {
	o := Quick()
	o.Jobs = 2
	start := runtime.NumGoroutine()
	var heap [3]uint64
	for pass := range heap {
		if _, err := Fig5a(o); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Table3(o); err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(start); n > start {
			t.Errorf("pass %d: %d goroutines, %d at the start", pass+1, n, start)
		}
		heap[pass] = heapInUse()
		t.Logf("pass %d: heap in use %.1f MB", pass+1, float64(heap[pass])/(1<<20))
	}
	const slack = 4 << 20 // GC and allocator noise
	if heap[2] > heap[0]+slack {
		t.Errorf("heap in use grew from %.1f MB after pass 1 to %.1f MB after pass 3",
			float64(heap[0])/(1<<20), float64(heap[2])/(1<<20))
	}
}

// TestEveryRunnerReleasesItsMachines runs every registered experiment and
// mode once: each must close every machine it builds, so the goroutine
// count is back at its starting value after each.
func TestEveryRunnerReleasesItsMachines(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, r := range append(slices.Clone(Registry), Modes(TrafficOptions{Window: 2 * sim.Millisecond})...) {
		if err := r.Run(tiny(), io.Discard); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if n := settledGoroutines(start); n > start {
			t.Errorf("%s left %d goroutines behind", r.ID, n-start)
		}
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to want (a closed machine's goroutines finish just after Close returns)
// and returns the count it saw last.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// heapInUse returns the bytes of heap in use after two collections.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
