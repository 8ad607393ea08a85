package flick_test

import (
	"runtime"
	"testing"

	"flick"
	"flick/internal/core"
)

// roundTripSource makes one kind of Flick round trip per loop iteration,
// after one warm-up call that pays the first migration's stack set-up and
// TLB fills. Direction 0 calls an NxP function from the host
// (host→NxP→host); direction 1 migrates to the NxP once, where a loop
// calls a host function (NxP→host→NxP).
const roundTripSource = `
.func main isa=host
    ; a0 = calls, a1 = direction
    bne  a1, zr, n2h
    mov  t5, a0
    call nxp_null
h2n:
    call nxp_null
    addi t5, t5, -1
    bne  t5, zr, h2n
    halt
n2h:
    call nxp_loop
    halt
.endfunc

.func nxp_null isa=nxp
    ret
.endfunc

.func nxp_loop isa=nxp
    ; a0 = calls
    push ra
    mov  t5, a0
    call host_null
n2hloop:
    call host_null
    addi t5, t5, -1
    bne  t5, zr, n2hloop
    pop  ra
    ret
.endfunc

.func host_null isa=host
    ret
.endfunc
`

var roundTripDirs = []struct {
	name string
	dir  uint64
}{{"h2n", 0}, {"n2h", 1}}

// roundTripSystem builds the round-trip program's machine.
func roundTripSystem(tb testing.TB) *flick.System {
	sys, err := flick.Build(flick.Config{Sources: map[string]string{"rt.fasm": roundTripSource}})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// runRoundTrips makes calls round trips of one direction on sys, checking
// every call migrated.
func runRoundTrips(tb testing.TB, sys *flick.System, calls int, dir uint64) {
	if _, err := sys.RunProgram("main", uint64(calls), dir); err != nil {
		tb.Fatal(err)
	}
	// Every call migrates once, the warm-up included; n2h migrates
	// to its loop once more.
	st := sys.Runtime.Stats()
	want := core.Stats{H2NCalls: calls + 1}
	if dir == 1 {
		want = core.Stats{H2NCalls: 1, N2HCalls: calls + 1}
	}
	if st.H2NCalls != want.H2NCalls || st.N2HCalls != want.N2HCalls {
		tb.Fatalf("migrated calls %+v, want %+v", st, want)
	}
}

// BenchmarkFlickRoundTrip is one warmed Flick round trip per op, in each
// direction: the wall cost of simulating an ISA crossing there and back.
// The machine's build is outside the timer, and the one warm-up call
// inside it is spread over b.N calls.
func BenchmarkFlickRoundTrip(b *testing.B) {
	for _, d := range roundTripDirs {
		b.Run(d.name, func(b *testing.B) {
			sys := roundTripSystem(b)
			defer sys.Close()
			b.ReportAllocs()
			b.ResetTimer()
			runRoundTrips(b, sys, b.N, d.dir)
		})
	}
}

// TestRoundTripAllocs pins that one warmed round trip allocates nothing in
// either direction, by difference: a 2,000-call run minus a 1,000-call
// run, so the machine's build and the warm-up cancel. Like
// testing.AllocsPerRun, the average is taken in whole allocations, which
// drops the MSI timers' share of a 64-timer chunk, all that is left.
func TestRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four machines")
	}
	mallocs := func(calls int, dir uint64) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sys := roundTripSystem(t)
		runRoundTrips(t, sys, calls, dir)
		sys.Close()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	for _, d := range roundTripDirs {
		if per := (mallocs(2000, d.dir) - mallocs(1000, d.dir)) / 1000; per > 0 {
			t.Errorf("%s: %d allocations per round trip, want 0", d.name, per)
		}
	}
}
