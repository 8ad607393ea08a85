package sim

import (
	"strings"
	"testing"
)

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{267 * Nanosecond, "267ns"},
		{Duration(18.3 * float64(Microsecond)), "18.3µs"},
		{100 * Microsecond, "100µs"},
		{5 * Millisecond, "5ms"},
		{90 * Second, "90s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(5 * Microsecond)
	t1 := t0.Add(300 * Nanosecond)
	if d := t1.Sub(t0); d != 300*Nanosecond {
		t.Errorf("Sub = %v, want 300ns", d)
	}
	if t1.Duration() != 5*Microsecond+300*Nanosecond {
		t.Errorf("Duration = %v", t1.Duration())
	}
}

func TestDurationConversions(t *testing.T) {
	d := Duration(18300 * Nanosecond)
	if got := d.Microseconds(); got != 18.3 {
		t.Errorf("Microseconds = %v, want 18.3", got)
	}
	if got := d.Nanoseconds(); got != 18300 {
		t.Errorf("Nanoseconds = %v, want 18300", got)
	}
	if got := Duration(2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := FromStd(d.Std()); got != d {
		t.Errorf("round trip through time.Duration = %v, want %v", got, d)
	}
}

func TestTraceRecordsAndBounds(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Add(Event{At: Time(i), Kind: KindSched, Aux: uint64(i)})
	}
	if got := len(tr.Events()); got != 3 {
		t.Errorf("len(Events) = %d, want 3", got)
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", tr.Dropped())
	}
	if !strings.Contains(tr.String(), "2 events dropped") {
		t.Errorf("String() missing drop note:\n%s", tr.String())
	}
	if tr.Cap() != 3 {
		t.Errorf("Cap = %d, want 3", tr.Cap())
	}
}

func TestTraceDisabled(t *testing.T) {
	tr := NewTrace(0)
	tr.Add(Event{Kind: KindSched})
	if tr.Enabled() {
		t.Error("zero-capacity trace reports Enabled")
	}
	if len(tr.Events()) != 0 {
		t.Error("disabled trace recorded an event")
	}
	var nilTrace *Trace
	if nilTrace.Enabled() {
		t.Error("nil trace reports Enabled")
	}
	if nilTrace.Events() != nil || nilTrace.Dropped() != 0 || nilTrace.Cap() != 0 {
		t.Error("nil trace not inert")
	}
}

func TestTraceFilter(t *testing.T) {
	tr := NewTrace(10)
	tr.Add(Event{At: 1, Kind: KindDMA, Note: "a"})
	tr.Add(Event{At: 2, Kind: KindFault, Note: "b"})
	tr.Add(Event{At: 3, Kind: KindDMA, Note: "c"})
	got := tr.Filter(KindDMA)
	if len(got) != 2 || got[0].Note != "a" || got[1].Note != "c" {
		t.Errorf("Filter(KindDMA) = %v", got)
	}
}

func TestEnvTraceIntegration(t *testing.T) {
	env := NewEnv()
	env.SetTraceCap(16)
	env.Spawn("p", func(p *Proc) {
		p.Sleep(7 * Nanosecond)
		env.Emit(Event{Comp: "test", Kind: KindSched, Note: "hello"})
	})
	env.Run()
	evs := env.Trace().Filter(KindSched)
	if len(evs) != 1 || evs[0].At != Time(7*Nanosecond) {
		t.Errorf("trace events = %v", evs)
	}
	if evs[0].Comp != "test" || evs[0].Note != "hello" {
		t.Errorf("event payload = %+v", evs[0])
	}
	env.SetTraceCap(0)
	if env.Trace().Enabled() {
		t.Error("SetTraceCap(0) should install a disabled trace")
	}
}

// TestEnvDefaultTraceConfigurable locks the trace's sizing: NewEnv builds a
// capacity-0 trace, SetTraceCap must enable recording at the capacity it
// is given, and a trace that fills must count drops rather than silently
// changing semantics.
func TestEnvDefaultTraceConfigurable(t *testing.T) {
	if NewEnv().Trace().Enabled() {
		t.Error("default env should not record events")
	}
	env := NewEnv()
	env.SetTraceCap(2)
	if !env.Trace().Enabled() || env.Trace().Cap() != 2 {
		t.Fatalf("SetTraceCap(2) not applied: cap=%d", env.Trace().Cap())
	}
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			env.Emit(Event{Comp: "p", Kind: KindSched, Aux: uint64(i)})
			p.Sleep(Nanosecond)
		}
	})
	env.Run()
	if got := len(env.Trace().Events()); got != 2 {
		t.Errorf("full trace kept %d events, want 2", got)
	}
	if got := env.Trace().Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	rep := env.Report()
	if rep.Dropped != 3 || len(rep.Events) != 2 {
		t.Errorf("Report dropped=%d events=%d, want 3/2", rep.Dropped, len(rep.Events))
	}

	env2 := NewEnv()
	env2.SetTraceCap(8)
	if !env2.Trace().Enabled() || env2.Trace().Cap() != 8 {
		t.Errorf("SetTraceCap(8) not applied: cap=%d", env2.Trace().Cap())
	}
}

func TestEventString(t *testing.T) {
	ev := Event{At: Time(18300 * Nanosecond), Comp: "core/host0", Kind: KindMigrate, Note: "h2n", Addr: 0x1000, Aux: 7}
	s := ev.String()
	for _, want := range []string{"18.3µs", "[migrate]", "core/host0", "h2n", "addr=0x1000", "aux=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindFault:     "fault",
		KindMigrate:   "migrate",
		KindDMA:       "dma",
		KindIRQ:       "irq",
		KindSyscall:   "syscall",
		KindCtxSwitch: "ctxsw",
		Kind(200):     "kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
