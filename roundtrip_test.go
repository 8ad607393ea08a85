package flick_test

import (
	"runtime"
	"testing"

	"flick"
	"flick/internal/core"
	"flick/internal/sim"
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
// drops the MSI timers' share of a 64-timer chunk, all that is left. The
// bytes are bounded too, since a few timers armed per call from the chunk
// add garbage that the whole-allocation count rounds away.
func TestRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four machines")
	}
	const maxBytes = 32
	alloced := func(calls int, dir uint64) (mallocs, bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sys := roundTripSystem(t)
		runRoundTrips(t, sys, calls, dir)
		sys.Close()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	for _, d := range roundTripDirs {
		m2, b2 := alloced(2000, d.dir)
		m1, b1 := alloced(1000, d.dir)
		if per := (m2 - m1) / 1000; per > 0 {
			t.Errorf("%s: %d allocations per round trip, want 0", d.name, per)
		}
		if per := (b2 - b1) / 1000; per > maxBytes {
			t.Errorf("%s: %d bytes allocated per round trip, want at most %d", d.name, per, maxBytes)
		}
	}
}

// TestRoundTripHandoffs pins the event engine's work per warmed round trip
// in each direction, by the same difference as TestRoundTripAllocs. The
// crossing makes 2 baton handoffs, one to the core that runs the callee
// and one back to the caller's core, and runs 5 timer callbacks: the
// start and the completion of each direction's descriptor DMA, and the
// MSI. The DMA engines run on timers, so no handoff resumes one.
func TestRoundTripHandoffs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four machines")
	}
	stats := func(calls int, dir uint64) sim.EngineStats {
		sys := roundTripSystem(t)
		defer sys.Close()
		runRoundTrips(t, sys, calls, dir)
		return sys.EngineStats()
	}
	for _, d := range roundTripDirs {
		s2, s1 := stats(2000, d.dir), stats(1000, d.dir)
		if got := s2.Handoffs - s1.Handoffs; got != 2*1000 {
			t.Errorf("%s: %d handoffs per 1,000 round trips, want 2,000", d.name, got)
		}
		if got := s2.Timers - s1.Timers; got != 5*1000 {
			t.Errorf("%s: %d timer callbacks per 1,000 round trips, want 5,000", d.name, got)
		}
	}
}
