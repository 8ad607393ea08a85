package cpu

import (
	"errors"
	"fmt"

	"flick/internal/isa"
	"flick/internal/paging"
	"flick/internal/sim"
)

// opFn executes one decoded instruction whose following instruction
// starts at next. Each handler owns the PC update: straight-line ops set
// ctx.PC = next, control transfers set their target, halt leaves PC
// untouched, and handled faults return through deliver/dataFault without
// moving PC so the faulting instruction re-executes after the handler.
// Handlers take ins by value — passing a pointer through the indirect
// call would escape it to the heap and break the 0 allocs/step invariant.
//
// Both the per-instruction slow path (execute) and the superblock
// executor dispatch through opTable, so their architectural semantics are
// identical by construction.
type opFn func(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error

var opTable = [isa.NumOps]opFn{
	isa.OpNop:  execNop,
	isa.OpHalt: execHalt,

	isa.OpMov:  execMov,
	isa.OpMovi: execMovi,
	isa.OpOrhi: execOrhi,

	isa.OpAdd:  execAdd,
	isa.OpSub:  execSub,
	isa.OpMul:  execMul,
	isa.OpUdiv: execDivRem,
	isa.OpUrem: execDivRem,
	isa.OpAnd:  execAnd,
	isa.OpOr:   execOr,
	isa.OpXor:  execXor,
	isa.OpShl:  execShl,
	isa.OpShr:  execShr,
	isa.OpSar:  execSar,
	isa.OpSlt:  execSlt,
	isa.OpSltu: execSltu,

	isa.OpAddi:  execAddi,
	isa.OpMuli:  execMuli,
	isa.OpAndi:  execAndi,
	isa.OpOri:   execOri,
	isa.OpXori:  execXori,
	isa.OpShli:  execShli,
	isa.OpShri:  execShri,
	isa.OpSlti:  execSlti,
	isa.OpSltui: execSltui,

	isa.OpLd1: execLoad,
	isa.OpLd2: execLoad,
	isa.OpLd4: execLoad,
	isa.OpLd8: execLoad,
	isa.OpSt1: execStore,
	isa.OpSt2: execStore,
	isa.OpSt4: execStore,
	isa.OpSt8: execStore,

	isa.OpPush: execPush,
	isa.OpPop:  execPop,

	isa.OpJmp:  execJmp,
	isa.OpJmpr: execJmpr,
	isa.OpBeq:  execBranch,
	isa.OpBne:  execBranch,
	isa.OpBlt:  execBranch,
	isa.OpBge:  execBranch,
	isa.OpBltu: execBranch,
	isa.OpBgeu: execBranch,

	isa.OpCall:  execCall,
	isa.OpCallr: execCallr,
	isa.OpRet:   execRet,

	isa.OpNative: execNative,
	isa.OpSys:    execSys,
}

// execute runs one decoded instruction. n is its encoded length. Cycle
// pricing is the backend's: isa.BaseStepCycles plus any per-form penalty
// the encoding charges (e.g. decode expansion of wide compressed forms).
func (c *Core) execute(p *sim.Proc, ins isa.Instr, n int) error {
	c.charge(p, c.codec.StepCycles(ins, n))
	c.instret++
	if int(ins.Op) >= isa.NumOps || opTable[ins.Op] == nil {
		return fmt.Errorf("cpu: %s: unimplemented op %v", c, ins.Op)
	}
	return opTable[ins.Op](c, p, ins, c.ctx.PC+uint64(n))
}

func execNop(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC = next
	return nil
}

func execHalt(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.halted = true
	return nil
}

func execMov(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs))
	ctx.PC = next
	return nil
}

func execMovi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.SetReg(ins.Rd, uint64(ins.Imm))
	c.ctx.PC = next
	return nil
}

func execOrhi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, uint64(ins.Imm)<<32|ctx.Reg(ins.Rd)&0xFFFFFFFF)
	ctx.PC = next
	return nil
}

func execAdd(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)+ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execSub(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)-ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execMul(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)*ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execDivRem(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	d := ctx.Reg(ins.Rt)
	if d == 0 {
		return c.deliver(p, &Fault{Kind: FaultArith, ISA: c.cfg.ISA, VA: ctx.PC, PC: ctx.PC})
	}
	if ins.Op == isa.OpUdiv {
		ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)/d)
	} else {
		ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)%d)
	}
	ctx.PC = next
	return nil
}

func execAnd(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)&ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execOr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)|ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execXor(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)^ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execShl(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)<<(ctx.Reg(ins.Rt)&63))
	ctx.PC = next
	return nil
}

func execShr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)>>(ctx.Reg(ins.Rt)&63))
	ctx.PC = next
	return nil
}

func execSar(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, uint64(int64(ctx.Reg(ins.Rs))>>(ctx.Reg(ins.Rt)&63)))
	ctx.PC = next
	return nil
}

func execSlt(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(int64(ctx.Reg(ins.Rs)) < int64(ctx.Reg(ins.Rt))))
	ctx.PC = next
	return nil
}

func execSltu(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(ctx.Reg(ins.Rs) < ctx.Reg(ins.Rt)))
	ctx.PC = next
	return nil
}

func execAddi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)+uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execMuli(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)*uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execAndi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)&uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execOri(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)|uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execXori(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)^uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execShli(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)<<(uint64(ins.Imm)&63))
	ctx.PC = next
	return nil
}

func execShri(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)>>(uint64(ins.Imm)&63))
	ctx.PC = next
	return nil
}

func execSlti(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(int64(ctx.Reg(ins.Rs)) < ins.Imm))
	ctx.PC = next
	return nil
}

func execSltui(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(ctx.Reg(ins.Rs) < uint64(ins.Imm)))
	ctx.PC = next
	return nil
}

func execLoad(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	size := 1 << (ins.Op - isa.OpLd1)
	va := ctx.Reg(ins.Rs) + uint64(ins.Imm)
	var buf [8]byte
	if err := c.readVirt(p, va, buf[:size]); err != nil {
		return c.dataFault(p, err, va)
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	ctx.SetReg(ins.Rd, v)
	ctx.PC = next
	return nil
}

func execStore(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	size := 1 << (ins.Op - isa.OpSt1)
	va := ctx.Reg(ins.Rd) + uint64(ins.Imm)
	v := ctx.Reg(ins.Rs)
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	if err := c.writeVirt(p, va, buf[:size]); err != nil {
		return c.dataFault(p, err, va)
	}
	ctx.PC = next
	return nil
}

func execPush(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	sp := ctx.Reg(isa.SP) - 8
	var buf [8]byte
	v := ctx.Reg(ins.Rs)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	if err := c.writeVirt(p, sp, buf[:]); err != nil {
		return c.dataFault(p, err, sp)
	}
	ctx.SetReg(isa.SP, sp)
	ctx.PC = next
	return nil
}

func execPop(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	sp := ctx.Reg(isa.SP)
	var buf [8]byte
	if err := c.readVirt(p, sp, buf[:]); err != nil {
		return c.dataFault(p, err, sp)
	}
	var v uint64
	for i := range buf {
		v |= uint64(buf[i]) << (8 * i)
	}
	ctx.SetReg(ins.Rd, v)
	ctx.SetReg(isa.SP, sp+8)
	ctx.PC = next
	return nil
}

func execJmp(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC += uint64(ins.Imm)
	return nil
}

func execJmpr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC = c.ctx.Reg(ins.Rs)
	return nil
}

func execBranch(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	if branchTaken(ins.Op, ctx.Reg(ins.Rs), ctx.Reg(ins.Rt)) {
		ctx.PC += uint64(ins.Imm)
		return nil
	}
	ctx.PC = next
	return nil
}

func execCall(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(isa.RA, next)
	ctx.PC += uint64(ins.Imm)
	return nil
}

func execCallr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(isa.RA, next)
	ctx.PC = ctx.Reg(ins.Rs)
	return nil
}

func execRet(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC = c.ctx.Reg(isa.RA)
	return nil
}

func execNative(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	p.Sync() // native helpers may touch any machine state
	ctx := c.ctx
	fn, ok := c.cfg.Natives.lookup(ins.Imm)
	if !ok {
		return fmt.Errorf("cpu: %s: native #%d not registered (pc=%#x)", c, ins.Imm, ctx.PC)
	}
	// A native stub behaves as the whole function body: run it, then
	// return to the caller.
	if err := fn(p, c); err != nil {
		return err
	}
	if c.halted {
		return nil
	}
	ctx.PC = ctx.Reg(isa.RA)
	return nil
}

func execSys(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	p.Sync() // the syscall handler is kernel code, never domain-local
	if c.cfg.Sys == nil {
		return fmt.Errorf("cpu: %s: sys %d with no handler", c, ins.Imm)
	}
	c.ctx.PC = next // syscalls resume after the instruction by default
	return c.cfg.Sys(p, c, ins.Imm)
}

func branchTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	case isa.OpBltu:
		return a < b
	case isa.OpBgeu:
		return a >= b
	}
	return false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// deliver routes a synchronous fault through the handler.
func (c *Core) deliver(p *sim.Proc, f *Fault) error {
	p.Sync() // fault handlers reach the kernel and emit trace events
	c.faults++
	if c.cfg.Fault != nil {
		return c.cfg.Fault(p, c, f)
	}
	return f
}

// dataFault classifies a data-access error and delivers it.
func (c *Core) dataFault(p *sim.Proc, err error, va uint64) error {
	var f *Fault
	var nm *paging.NotMappedError
	switch {
	case errors.As(err, &f):
		// already classified (protection)
	case errors.As(err, &nm):
		f = &Fault{Kind: FaultDataNotMapped, ISA: c.cfg.ISA, VA: va, PC: c.ctx.PC, Err: err}
	default:
		f = &Fault{Kind: FaultMachineCheck, ISA: c.cfg.ISA, VA: va, PC: c.ctx.PC, Err: err}
	}
	return c.deliver(p, f)
}

// readVirt reads len(buf) bytes from virtual address va, charging
// translation and access costs; accesses may straddle page boundaries.
func (c *Core) readVirt(p *sim.Proc, va uint64, buf []byte) error {
	return c.accessVirt(p, va, buf, false)
}

// writeVirt writes buf to virtual address va.
func (c *Core) writeVirt(p *sim.Proc, va uint64, buf []byte) error {
	return c.accessVirt(p, va, buf, true)
}

func (c *Core) accessVirt(p *sim.Proc, va uint64, buf []byte, write bool) error {
	for len(buf) > 0 {
		r, err := c.cfg.DMMU.Translate(p, va)
		if err != nil {
			return err
		}
		if write && !r.Flags.Writable {
			return &Fault{Kind: FaultDataProtection, ISA: c.cfg.ISA, VA: va, PC: c.ctx.PC}
		}
		c.domainGuard(p, r.Phys)
		pageRemain := r.PageSize - (va & (r.PageSize - 1))
		n := uint64(len(buf))
		if n > pageRemain {
			n = pageRemain
		}
		if c.cfg.AccessCost != nil {
			p.Sleep(c.cfg.AccessCost(r.Phys, int(n), write))
		}
		var aerr error
		if write {
			aerr = c.cfg.Phys.Write(r.Phys, buf[:n])
		} else {
			aerr = c.cfg.Phys.Read(r.Phys, buf[:n])
		}
		if aerr != nil {
			return aerr
		}
		buf = buf[n:]
		va += n
	}
	return nil
}

// ReadVirt exposes timed virtual-memory reads to native functions.
func (c *Core) ReadVirt(p *sim.Proc, va uint64, buf []byte) error {
	return c.readVirt(p, va, buf)
}

// WriteVirt exposes timed virtual-memory writes to native functions.
func (c *Core) WriteVirt(p *sim.Proc, va uint64, buf []byte) error {
	return c.writeVirt(p, va, buf)
}

// ReadU64Virt reads a 64-bit little-endian word at va with timing.
func (c *Core) ReadU64Virt(p *sim.Proc, va uint64) (uint64, error) {
	var buf [8]byte
	if err := c.readVirt(p, va, buf[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := range buf {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v, nil
}

// WriteU64Virt writes a 64-bit little-endian word at va with timing.
func (c *Core) WriteU64Virt(p *sim.Proc, va, v uint64) error {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return c.writeVirt(p, va, buf[:])
}

// ChargeCycles lets native functions account for their simulated work.
func (c *Core) ChargeCycles(p *sim.Proc, n int) { c.charge(p, n) }

// CycleTime returns the core's clock period.
func (c *Core) CycleTime() sim.Duration { return c.cfg.CycleTime }
