// Package isa defines the instruction set of the simulated cores and its
// two machine encodings.
//
// Both the host cores and the NxP core execute the same register-machine
// instruction set (sixteen 64-bit registers, load/store, ALU, branches,
// calls), but each core family uses its own binary encoding:
//
//   - HostCodec is a variable-length, x86-flavored encoding (3-11 bytes per
//     instruction, immediates of 1/4/8 bytes chosen per instruction).
//   - NxpCodec is a fixed-width, RISC-V-flavored encoding (8 bytes per
//     instruction, 8-byte alignment required, 32-bit immediates only).
//
// The encodings are mutually unintelligible, which is the property the
// Flick mechanism depends on: bytes assembled for one ISA decode to garbage
// (or alignment faults) on the other, so instruction pages must carry an
// ISA marker — the NX bit — and crossing it must trap.
package isa

import "fmt"

// Reg names one of the sixteen architectural registers.
type Reg uint8

// Architectural registers and their ABI roles. The call convention is the
// same on both cores: arguments and the return value in A0-A5, RA holds the
// return address after CALL, SP is the stack pointer, ZR reads as zero and
// ignores writes.
const (
	A0 Reg = iota // argument 0 / return value
	A1
	A2
	A3
	A4
	A5
	T0 // caller-saved temporaries
	T1
	T2
	T3
	T4
	T5
	FP // frame pointer (callee-saved)
	RA // return address (link register)
	SP // stack pointer
	ZR // hard-wired zero

	NumRegs = 16
)

var regNames = [NumRegs]string{
	"a0", "a1", "a2", "a3", "a4", "a5",
	"t0", "t1", "t2", "t3", "t4", "t5",
	"fp", "ra", "sp", "zr",
}

// String returns the ABI name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// RegByName resolves an ABI register name ("a0", "sp", ...) or the raw
// form "rN".
func RegByName(s string) (Reg, bool) {
	for i, n := range regNames {
		if n == s {
			return Reg(i), true
		}
	}
	// Manual "rN" parse (the assembler calls this for every operand token,
	// so no fmt machinery): optional sign, at least one digit, trailing
	// input ignored — the acceptance set of Sscanf(s, "r%d").
	if len(s) < 2 || s[0] != 'r' {
		return 0, false
	}
	digits := s[1:]
	neg := false
	if digits[0] == '+' || digits[0] == '-' {
		neg = digits[0] == '-'
		digits = digits[1:]
	}
	if digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		if n >= NumRegs {
			return 0, false
		}
	}
	if neg {
		return 0, false
	}
	return Reg(n), true
}

// Op is an operation code, shared between both encodings.
type Op uint8

// Operations. The comment gives the assembler syntax and semantics.
const (
	OpInvalid Op = iota

	OpNop  // nop
	OpHalt // halt            — terminate the thread

	OpMov  // mov  rd, rs     — rd = rs
	OpMovi // movi rd, imm    — rd = sign-extended imm
	OpOrhi // orhi rd, imm    — rd = (imm<<32) | (rd & 0xFFFFFFFF)

	OpAdd  // add  rd, rs, rt
	OpSub  // sub  rd, rs, rt
	OpMul  // mul  rd, rs, rt
	OpUdiv // udiv rd, rs, rt — unsigned; divide by zero faults
	OpUrem // urem rd, rs, rt
	OpAnd  // and  rd, rs, rt
	OpOr   // or   rd, rs, rt
	OpXor  // xor  rd, rs, rt
	OpShl  // shl  rd, rs, rt — shift count mod 64
	OpShr  // shr  rd, rs, rt — logical
	OpSar  // sar  rd, rs, rt — arithmetic
	OpSlt  // slt  rd, rs, rt — rd = (rs < rt) signed
	OpSltu // sltu rd, rs, rt — rd = (rs < rt) unsigned

	OpAddi  // addi  rd, rs, imm
	OpMuli  // muli  rd, rs, imm
	OpAndi  // andi  rd, rs, imm
	OpOri   // ori   rd, rs, imm
	OpXori  // xori  rd, rs, imm
	OpShli  // shli  rd, rs, imm
	OpShri  // shri  rd, rs, imm
	OpSlti  // slti  rd, rs, imm
	OpSltui // sltui rd, rs, imm

	OpLd1 // ld1 rd, [rs+imm] — zero-extending loads
	OpLd2 // ld2 rd, [rs+imm]
	OpLd4 // ld4 rd, [rs+imm]
	OpLd8 // ld8 rd, [rs+imm]
	OpSt1 // st1 rs, [rd+imm] — note: address base in rd slot
	OpSt2 // st2 rs, [rd+imm]
	OpSt4 // st4 rs, [rd+imm]
	OpSt8 // st8 rs, [rd+imm]

	OpPush // push rs          — sp -= 8; [sp] = rs
	OpPop  // pop  rd          — rd = [sp]; sp += 8

	OpJmp  // jmp  imm         — PC-relative (from instruction start)
	OpJmpr // jmpr rs          — absolute
	OpBeq  // beq  rs, rt, imm
	OpBne  // bne  rs, rt, imm
	OpBlt  // blt  rs, rt, imm — signed
	OpBge  // bge  rs, rt, imm — signed
	OpBltu // bltu rs, rt, imm
	OpBgeu // bgeu rs, rt, imm

	OpCall  // call  imm       — RA = next PC; PC += imm
	OpCallr // callr rs        — RA = next PC; PC = rs
	OpRet   // ret             — PC = RA

	OpNative // native imm     — invoke registered native function #imm
	OpSys    // sys imm        — kernel service call #imm

	opCount
)

// NumOps bounds dense per-operation tables (e.g. the core's handler
// dispatch table): every defined Op, including OpInvalid, is < NumOps.
const NumOps = int(opCount)

var opNames = map[Op]string{
	OpNop: "nop", OpHalt: "halt",
	OpMov: "mov", OpMovi: "movi", OpOrhi: "orhi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUdiv: "udiv", OpUrem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpSlt: "slt", OpSltu: "sltu",
	OpAddi: "addi", OpMuli: "muli", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpShli: "shli", OpShri: "shri", OpSlti: "slti", OpSltui: "sltui",
	OpLd1: "ld1", OpLd2: "ld2", OpLd4: "ld4", OpLd8: "ld8",
	OpSt1: "st1", OpSt2: "st2", OpSt4: "st4", OpSt8: "st8",
	OpPush: "push", OpPop: "pop",
	OpJmp: "jmp", OpJmpr: "jmpr",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpBltu: "bltu", OpBgeu: "bgeu",
	OpCall: "call", OpCallr: "callr", OpRet: "ret",
	OpNative: "native", OpSys: "sys",
}

// String returns the mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// opByName inverts opNames, built once for the assembler's per-mnemonic
// lookups.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// OpByName resolves a mnemonic.
func OpByName(s string) (Op, bool) {
	op, ok := opByName[s]
	return op, ok
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o > OpInvalid && o < opCount }

// Class describes an operation's operand shape, used by the encoders and
// the assembler parser.
type Class int

const (
	ClassNone   Class = iota // nop, halt, ret
	ClassRR                  // mov rd, rs
	ClassRRR                 // add rd, rs, rt
	ClassRRI                 // addi rd, rs, imm
	ClassRI                  // movi rd, imm
	ClassMem                 // ld/st rd, [rs+imm]
	ClassR                   // push/pop/jmpr/callr
	ClassI                   // jmp/call/native/sys imm
	ClassBranch              // beq rs, rt, imm
)

// ClassOf returns the operand shape of op.
func ClassOf(op Op) Class {
	switch op {
	case OpNop, OpHalt, OpRet:
		return ClassNone
	case OpMov:
		return ClassRR
	case OpAdd, OpSub, OpMul, OpUdiv, OpUrem, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpSar, OpSlt, OpSltu:
		return ClassRRR
	case OpAddi, OpMuli, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti, OpSltui:
		return ClassRRI
	case OpMovi, OpOrhi:
		return ClassRI
	case OpLd1, OpLd2, OpLd4, OpLd8, OpSt1, OpSt2, OpSt4, OpSt8:
		return ClassMem
	case OpPush, OpPop, OpJmpr, OpCallr:
		return ClassR
	case OpJmp, OpCall, OpNative, OpSys:
		return ClassI
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return ClassBranch
	default:
		return ClassNone
	}
}

// Instr is one decoded instruction. Unused fields are zero.
type Instr struct {
	Op  Op
	Rd  Reg
	Rs  Reg
	Rt  Reg
	Imm int64
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	switch ClassOf(i.Op) {
	case ClassNone:
		return i.Op.String()
	case ClassRR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs)
	case ClassRRR:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs, i.Rt)
	case ClassRRI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs, i.Imm)
	case ClassRI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case ClassMem:
		if i.Op >= OpSt1 && i.Op <= OpSt8 {
			return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.Rs, i.Rd, i.Imm)
		}
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.Rd, i.Rs, i.Imm)
	case ClassR:
		if i.Op == OpPop {
			return fmt.Sprintf("%s %s", i.Op, i.Rd)
		}
		return fmt.Sprintf("%s %s", i.Op, i.Rs)
	case ClassI:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs, i.Rt, i.Imm)
	default:
		return i.Op.String()
	}
}

// ISA identifies a core family / encoding.
type ISA int

const (
	// ISAHost is the server-CPU family (variable-length encoding).
	ISAHost ISA = iota
	// ISANxP is the near-x-processor family (fixed-width encoding).
	ISANxP
	// ISADsp is the second board-core family (bundle encoding) — the
	// paper's "more than two ISAs" extension (§IV-C3).
	ISADsp
)

// String names the ISA as used in section suffixes and diagnostics; the
// name comes from the registered backend.
func (i ISA) String() string {
	if b, ok := Lookup(i); ok {
		return b.Name()
	}
	return fmt.Sprintf("isa(%d)", int(i))
}

// Codec encodes and decodes instructions for one ISA.
type Codec interface {
	// ISA identifies the encoding family.
	ISA() ISA
	// Align is the required instruction address alignment in bytes.
	Align() int
	// MaxLen is the longest possible instruction encoding.
	MaxLen() int
	// Encode appends the encoding of ins.
	Encode(ins Instr) ([]byte, error)
	// Decode reads one instruction from the front of b, returning it and
	// its encoded length.
	Decode(b []byte) (Instr, int, error)
	// ImmOffset reports the byte offset and width of the immediate field
	// within the encoding of ins, for relocation patching.
	ImmOffset(ins Instr) (off, width int, err error)
}

// DecodeError reports undecodable machine bytes — the expected outcome of
// pointing one ISA's decoder at the other ISA's code.
type DecodeError struct {
	ISA    ISA
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: %s decode error: %s", e.ISA, e.Reason)
}
