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
//	defer sys.Close()                           // frees the machine once read
//	ret, err := sys.RunProgram("main", 42)      // runs to halt
//	fmt.Println(sys.Now(), sys.Runtime.Stats()) // virtual time, migrations
//
// Functions annotated `isa=nxp` in the assembly execute on the simulated
// NxP core next to the board DRAM; calls into them from host code (and
// back) migrate transparently, exactly as in the paper.
package flick

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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
	// Obs, when non-nil, configures observability for the run: the trace
	// capacity it requests (Observer.TraceCap) is applied at build time,
	// and callers hand the
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
	m, err := platform.New(params)
	if err != nil {
		return nil, err
	}
	if c := cfg.Obs.Cap(); c > 0 {
		m.Env.SetTraceCap(c)
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
	// The runtime library for the host and every family of the board cores
	// the machine carries; no other family's text may enter the image,
	// since no core could execute it.
	families := []isa.ISA{isa.HostISA()}
	for _, bc := range m.BoardCores {
		families = append(families, bc.Core.ISA())
	}
	lib, err := asm.Assemble("flick_runtime.fasm", core.Library(families))
	if err != nil {
		return nil, fmt.Errorf("flick: runtime library: %w", err)
	}
	objects = append(objects, lib)

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
// bugs or the §IV-D race) as errors that name each blocked process with
// the condition it waits on, and each unfinished task.
func (s *System) Run() (sim.Time, error) {
	end := s.Machine.Env.Run()
	if stuck := s.Machine.Env.Deadlocked(); len(stuck) > 0 {
		msg := "flick: simulation deadlocked with blocked processes: " + strings.Join(stuck, ", ")
		if tasks := s.Kernel.StuckTasks(); len(tasks) > 0 {
			msg += "; stuck tasks: " + strings.Join(tasks, ", ")
		}
		return end, errors.New(msg)
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

// EngineStats returns the event engine's bookkeeping: run-ahead window
// counts (zero when it never armed) and goroutine handoffs. Deliberately
// separate from Report: the Report is byte-identical between the fast and
// the reference engine, while these stats describe how the engine got
// there.
func (s *System) EngineStats() sim.EngineStats { return s.Machine.Env.EngineStats() }

// Console returns the program's console output.
func (s *System) Console() string { return s.Kernel.Console() }

// Close ends the goroutines the machine's processes leave parked after
// Run (DMA engines, board schedulers, host-core loops, tasks stuck in a
// deadlock), so the System becomes garbage once dropped. Call it after
// reading the results, Report included; Close is idempotent, and the
// system cannot run again afterwards. See sim.Env.Close.
func (s *System) Close() { s.Machine.Env.Close() }
