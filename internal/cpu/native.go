package cpu

import (
	"errors"
	"fmt"

	"flick/internal/isa"
	"flick/internal/sim"
)

// NativeTable maps `native` stub ids to their implementations. A table is
// shared by all cores of a machine: the stub's placement (which text
// section, hence which NX marking) decides which core can reach it, not
// the table.
type NativeTable struct {
	fns map[int64]NativeFunc
}

// NewNativeTable creates an empty table.
func NewNativeTable() *NativeTable {
	return &NativeTable{fns: make(map[int64]NativeFunc)}
}

// Register binds id to fn, replacing any previous binding.
func (t *NativeTable) Register(id int64, fn NativeFunc) {
	t.fns[id] = fn
}

func (t *NativeTable) lookup(id int64) (NativeFunc, bool) {
	if t == nil {
		return nil, false
	}
	fn, ok := t.fns[id]
	return fn, ok
}

// returnSentinel is the fake return address installed by Call. It is a
// non-canonical, maximally-misaligned value no real code path can reach;
// the Call loop intercepts it before any fetch is attempted.
const returnSentinel = 0xFFFF_FFFF_FFFF_FFF1

// Call invokes the simulated function at target with up to six arguments,
// running the interpreter until the function returns, and yields A0.
//
// This is the bridge native runtime code (the Flick migration handlers)
// uses to call interpreted functions — Listing 1's call_target_host_func.
// It nests arbitrarily: the called function may fault, migrate, and call
// back into natives that use Call again.
func (c *Core) Call(p *sim.Proc, target uint64, args ...uint64) (uint64, error) {
	if len(args) > 6 {
		return 0, fmt.Errorf("cpu: Call with %d args; calling convention passes at most 6", len(args))
	}
	if c.cfg.PhaseDomain > 0 {
		// The interpreter loop below is this core's compute window: while
		// it runs, the core may run ahead. EndCompute ends any run-ahead
		// window still open when the call returns, so the caller's glue
		// always runs sequentially.
		p.BeginCompute(c.cfg.PhaseDomain)
		defer p.EndCompute()
	}
	ctx := c.ctx
	savedPC := ctx.PC
	savedRA := ctx.Reg(isa.RA)

	for i, a := range args {
		ctx.SetReg(isa.Reg(i), a)
	}
	ctx.SetReg(isa.RA, returnSentinel)
	ctx.PC = target

	for ctx.PC != returnSentinel {
		if err := c.Step(p); err != nil {
			return 0, err
		}
		if c.halted {
			return 0, ErrHalted
		}
		if c.ctx != ctx {
			return 0, errors.New("cpu: context switched away during Call")
		}
	}
	ret := ctx.Reg(isa.A0)
	ctx.PC = savedPC
	ctx.SetReg(isa.RA, savedRA)
	return ret, nil
}

// Args reads the six argument registers of the current context — what the
// migration handler gathers into a call descriptor.
func (c *Core) Args() [6]uint64 {
	var a [6]uint64
	for i := range a {
		a[i] = c.ctx.Reg(isa.Reg(i))
	}
	return a
}

// SetArgs loads argument registers from a descriptor.
func (c *Core) SetArgs(a [6]uint64) {
	for i, v := range a {
		c.ctx.SetReg(isa.Reg(i), v)
	}
}
