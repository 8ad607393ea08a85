package sim

import (
	"fmt"
	"io"
	"strings"
)

// Kind categorizes a trace event. The enum replaces the free-form strings
// the trace used to carry so consumers can filter and aggregate without
// string matching, and so the Chrome trace export has stable categories.
type Kind uint8

const (
	KindNone      Kind = iota
	KindFault          // page/NX fault taken by a core
	KindMigrate        // an ISA-crossing call crossed the PCIe boundary
	KindSyscall        // host syscall entry
	KindCtxSwitch      // kernel installed a task on a core
	KindIRQ            // interrupt delivery (MSI)
	KindDMA            // one DMA transfer completed
	KindSched          // scheduler/dispatch protocol event
	KindMailbox        // descriptor mailbox event
)

var kindNames = [...]string{
	KindNone:      "none",
	KindFault:     "fault",
	KindMigrate:   "migrate",
	KindSyscall:   "syscall",
	KindCtxSwitch: "ctxsw",
	KindIRQ:       "irq",
	KindDMA:       "dma",
	KindSched:     "sched",
	KindMailbox:   "mbox",
}

// String returns the short lower-case category name, e.g. "migrate".
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is a single recorded simulation event: a timestamped, typed record
// emitted by a component (core, DMA engine, kernel, ...). The payload
// fields are generic by design — Addr and Aux carry the event's two most
// useful numbers (a virtual address and a PID, a source and a destination)
// and Size carries a byte count where one applies. Note is a short
// human-readable qualifier ("h2n", "lost wakeup"), never required for
// machine consumption.
type Event struct {
	At   Time
	Comp string // emitting component, e.g. "kernel", "dma", "core/host0"
	Kind Kind
	Addr uint64 // primary address-like payload (VA, source address, ...)
	Aux  uint64 // secondary payload (PID, destination address, ...)
	Size int64  // byte count, when the event moves data
	Note string // short qualifier for humans
}

// String renders the event as "  18.3µs [migrate] core/host0: h2n ...".
func (ev Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12v [%s] %s", ev.At, ev.Kind, ev.Comp)
	if ev.Note != "" {
		fmt.Fprintf(&sb, ": %s", ev.Note)
	}
	if ev.Addr != 0 {
		fmt.Fprintf(&sb, " addr=%#x", ev.Addr)
	}
	if ev.Aux != 0 {
		fmt.Fprintf(&sb, " aux=%d", ev.Aux)
	}
	if ev.Size != 0 {
		fmt.Fprintf(&sb, " size=%d", ev.Size)
	}
	return sb.String()
}

// Trace is a bounded in-memory event log. A zero-capacity trace discards
// events, so tracing can be left in hot paths without cost concerns beyond
// a nil-ish check. Traces are not safe for concurrent use, which is fine:
// the simulation runs one process at a time.
type Trace struct {
	cap    int
	events []Event
	drops  int
}

// NewTrace returns a trace that keeps at most capacity events. Capacity 0
// disables recording.
func NewTrace(capacity int) *Trace {
	return &Trace{cap: capacity}
}

// Enabled reports whether the trace records events.
func (t *Trace) Enabled() bool { return t != nil && t.cap > 0 }

// Cap returns the trace's capacity.
func (t *Trace) Cap() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// Add records an event, dropping it if the trace is full or disabled.
// Dropped events are counted, never silently lost.
func (t *Trace) Add(ev Event) {
	if !t.Enabled() {
		return
	}
	if len(t.events) >= t.cap {
		t.drops++
		return
	}
	t.events = append(t.events, ev)
}

// Events returns the recorded events in order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped returns how many events were discarded because the trace filled.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.drops
}

// Filter returns the recorded events whose Kind matches.
func (t *Trace) Filter(kind Kind) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// WriteTo dumps the trace in a human-readable form.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, ev := range t.Events() {
		n, err := fmt.Fprintln(w, ev.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if d := t.Dropped(); d > 0 {
		n, err := fmt.Fprintf(w, "... %d events dropped\n", d)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the whole trace.
func (t *Trace) String() string {
	var sb strings.Builder
	_, _ = t.WriteTo(&sb)
	return sb.String()
}
