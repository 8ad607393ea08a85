// Package flick is the public API of the Flick reproduction: a simulated
// heterogeneous-ISA machine (x86-style host + PCIe-attached RISC-style NxP
// core) running multi-ISA binaries whose threads migrate across the ISA
// boundary through Flick's NX-fault-triggered, descriptor-DMA mechanism.
//
// Typical use:
//
//	sys, err := flick.Build(flick.Config{
//	    Sources: map[string]string{"prog.fasm": src},
//	})
//	ret, err := sys.RunProgram("main", 42)      // runs to halt
//	fmt.Println(sys.Now(), sys.Runtime.Stats()) // virtual time, migrations
//
// Functions annotated `isa=nxp` in the assembly execute on the simulated
// NxP core next to the board DRAM; calls into them from host code (and
// back) migrate transparently, exactly as in the paper.
package flick

import (
	"fmt"
	"sort"

	"flick/internal/asm"
	"flick/internal/core"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/multibin"
	"flick/internal/platform"
	"flick/internal/sim"
)

// Config assembles a System.
type Config struct {
	// Params overrides the machine configuration; zero-value fields take
	// the calibrated Table I defaults.
	Params *platform.Params
	// Sources maps file names to Flick assembly sources. The runtime
	// library is linked in automatically.
	Sources map[string]string
	// Objects adds pre-assembled objects.
	Objects []*multibin.Object
	// Entry overrides the entry symbol (default "main").
	Entry string
	// Boards overrides Params.Boards when > 0: the number of PCIe-attached
	// NxP boards the machine is built with.
	Boards int
	// BoardPolicy overrides Params.BoardPolicy when non-empty: the kernel's
	// board-placement policy ("round-robin", "least-loaded", "affinity").
	BoardPolicy string
	// BoardISAs overrides Params.BoardISAs when non-nil: each board's core
	// family by registered backend name (entry i → board i; empty entries
	// default to "nxp").
	BoardISAs []string
	// TraceCapacity enables event tracing when > 0.
	TraceCapacity int
	// Obs, when non-nil, configures observability for the run: the trace
	// capacity it requests is applied at build time, and callers hand the
	// finished system back to it via Observer.Collect (the workloads do
	// this automatically). A nil Obs costs nothing.
	Obs *sim.Observer
}

// System is an assembled machine with a loaded multi-ISA program and the
// Flick runtime activated.
type System struct {
	Machine *platform.Machine
	Kernel  *kernel.Kernel
	Program *kernel.Program
	Runtime *core.Runtime
	Image   *multibin.Image
}

// Build assembles, links, loads, and activates.
func Build(cfg Config) (*System, error) {
	params := platform.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	if cfg.Boards > 0 {
		params.Boards = cfg.Boards
	}
	if cfg.BoardPolicy != "" {
		params.BoardPolicy = cfg.BoardPolicy
	}
	if cfg.BoardISAs != nil {
		params.BoardISAs = cfg.BoardISAs
	}
	m, err := platform.New(params)
	if err != nil {
		return nil, err
	}
	// Trace-capacity precedence: an explicit TraceCapacity always wins, even
	// when it is smaller than what the Observer would ask for; the Observer's
	// capacity applies only when TraceCapacity is zero (unset).
	traceCap := cfg.TraceCapacity
	if traceCap == 0 {
		traceCap = cfg.Obs.Cap()
	}
	if traceCap > 0 {
		m.Env.SetTraceCap(traceCap)
	}

	objects := append([]*multibin.Object(nil), cfg.Objects...)
	names := make([]string, 0, len(cfg.Sources))
	for name := range cfg.Sources {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic link order
	for _, name := range names {
		obj, err := asm.Assemble(name, cfg.Sources[name])
		if err != nil {
			return nil, err
		}
		objects = append(objects, obj)
	}
	// A machine whose boards all carry a non-default family must not link
	// the nxp runtime stubs: the image would carry .text.nxp no core can
	// execute, and activation rejects that. Machines with an nxp board
	// link the historical combined sources byte for byte.
	hasNxpBoard := false
	for _, b := range m.Boards {
		if m.BoardISA(b.Index) == isa.ISANxP {
			hasNxpBoard = true
			break
		}
	}
	runtimeSources := []struct{ name, source string }{
		{"flick_runtime.fasm", core.RuntimeSource},
		{"flick_stdlib.fasm", core.StdlibSource},
	}
	if !hasNxpBoard {
		runtimeSources = []struct{ name, source string }{
			{"flick_runtime.fasm", core.RuntimeHostOnlySource},
			{"flick_stdlib.fasm", core.StdlibHostOnlySource},
		}
	}
	// Extra per-ISA runtime libraries: the DSP's when that core is enabled,
	// and one for each non-default board family the machine carries.
	extra := map[string]bool{}
	if params.EnableDSP {
		extra["dsp"] = true
	}
	for _, name := range params.BoardISAs {
		if name != "" && name != "nxp" {
			extra[name] = true
		}
	}
	for _, name := range []string{"dsp", "cmp"} { // deterministic order
		if !extra[name] {
			continue
		}
		src, ok := core.RuntimeSourceFor(name)
		if !ok {
			return nil, fmt.Errorf("flick: no runtime library for board isa %q", name)
		}
		runtimeSources = append(runtimeSources,
			struct{ name, source string }{"flick_runtime_" + name + ".fasm", src})
	}
	for _, rs := range runtimeSources {
		obj, err := asm.Assemble(rs.name, rs.source)
		if err != nil {
			return nil, fmt.Errorf("flick: %s: %w", rs.name, err)
		}
		objects = append(objects, obj)
	}

	im, err := multibin.Link(multibin.LinkConfig{
		Entry:         cfg.Entry,
		PerISASymbols: core.PerISASymbols,
	}, objects...)
	if err != nil {
		return nil, err
	}
	prog, err := m.Kernel.LoadProgram(im)
	if err != nil {
		return nil, err
	}
	rt, err := core.Activate(m, prog)
	if err != nil {
		return nil, err
	}
	return &System{Machine: m, Kernel: m.Kernel, Program: prog, Runtime: rt, Image: im}, nil
}

// MustBuild is Build for examples and benchmarks.
func MustBuild(cfg Config) *System {
	s, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// RegisterNative binds a Go implementation to a `native N` stub id. Use it
// for instrumented functions in experiments (e.g. a workload's host-side
// callback that charges modeled costs).
func (s *System) RegisterNative(id int64, fn cpu.NativeFunc) {
	s.Machine.Natives.Register(id, fn)
}

// Symbol resolves a linked symbol's virtual address.
func (s *System) Symbol(name string) (uint64, error) {
	return s.Program.SymbolVA(name)
}

// Start queues a thread at the named function. Threads always begin on the
// host core.
func (s *System) Start(fn string, args ...uint64) (*kernel.Task, error) {
	va, err := s.Program.SymbolVA(fn)
	if err != nil {
		return nil, err
	}
	if target, ok := s.Image.TextISA(va); !ok || !isa.IsHost(target) {
		return nil, fmt.Errorf("flick: thread entry %q must be host text", fn)
	}
	return s.Kernel.StartThread(fn, va, args...)
}

// Run drives the simulation until all queued work completes and returns
// the final virtual time. It surfaces deadlocks (which indicate protocol
// bugs or the §IV-D race) as errors.
func (s *System) Run() (sim.Time, error) {
	end := s.Machine.Env.Run()
	if stuck := s.Machine.Env.Deadlocked(); len(stuck) > 0 {
		if tasks := s.Kernel.StuckTasks(); len(tasks) > 0 {
			return end, fmt.Errorf("flick: simulation deadlocked with blocked processes: %v; stuck tasks: %v", stuck, tasks)
		}
		return end, fmt.Errorf("flick: simulation deadlocked with blocked processes: %v", stuck)
	}
	return end, nil
}

// RunProgram starts fn as a thread, runs the simulation to completion, and
// returns the thread's final a0 (its return/exit value).
func (s *System) RunProgram(fn string, args ...uint64) (uint64, error) {
	t, err := s.Start(fn, args...)
	if err != nil {
		return 0, err
	}
	if _, err := s.Run(); err != nil {
		return 0, err
	}
	if t.Err != nil {
		return 0, t.Err
	}
	if t.State != kernel.TaskDone {
		return 0, fmt.Errorf("flick: thread %q ended in state %v", fn, t.State)
	}
	return t.Ctx.Reg(isa.A0), nil
}

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.Machine.Env.Now() }

// Report returns the system's observability data: the metrics snapshot
// every platform component registered into, plus the recorded event trace.
func (s *System) Report() sim.Report { return s.Machine.Env.Report() }

// SimParStats returns the event engine's bookkeeping: run-ahead window
// counts (zero when it never armed) and goroutine handoffs. Deliberately
// separate from Report: the Report is byte-identical between the fast and
// the reference engine, while these stats describe how the engine got
// there.
func (s *System) SimParStats() sim.SimParStats { return s.Machine.Env.SimParStats() }

// Console returns the program's console output.
func (s *System) Console() string { return s.Kernel.Console() }
