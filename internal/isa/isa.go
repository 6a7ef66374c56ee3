// Package isa defines the instruction set architecture executed by both the
// architectural emulator (internal/emu) and the cycle-level out-of-order core
// (internal/uarch).
//
// The ISA is a small RISC-like register machine chosen to expose exactly the
// microarchitectural levers the speculative interference attacks of Behnia et
// al. (ASPLOS 2021) require:
//
//   - SQRT/DIV are long-latency, non-pipelined, single-port operations (the
//     analog of VSQRTPD/VDIVPD used by the paper's GDNPEU gadget),
//   - LOAD/STORE traverse a cache hierarchy with MSHRs (GDMSHR),
//   - ADD chains occupy reservation stations (GIRS),
//   - CLFLUSH and RDCYCLE give the attacker the receiver primitives the
//     paper's PoCs use (Flush+Reload, timed probes),
//   - conditional branches are predicted by a mistrainable predictor.
package isa

import (
	"fmt"
	"strings"
)

// Reg names an architectural register. The machine has NumRegs general
// purpose registers R0..R31. R0 is an ordinary register (not hardwired).
type Reg uint8

// NumRegs is the number of architectural registers.
const NumRegs = 32

// Convenience register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// String implements fmt.Stringer.
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether r names an existing register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	// Nop does nothing.
	Nop Op = iota
	// Halt stops the machine.
	Halt

	// MovI: Dst = Imm.
	MovI
	// Mov: Dst = Src1.
	Mov
	// Add: Dst = Src1 + Src2.
	Add
	// AddI: Dst = Src1 + Imm.
	AddI
	// Sub: Dst = Src1 - Src2.
	Sub
	// And: Dst = Src1 & Src2.
	And
	// Or: Dst = Src1 | Src2.
	Or
	// Xor: Dst = Src1 ^ Src2.
	Xor
	// ShlI: Dst = Src1 << uint(Imm).
	ShlI
	// ShrI: Dst = int64(uint64(Src1) >> uint(Imm)).
	ShrI

	// Mul: Dst = Src1 * Src2. Pipelined, medium latency.
	Mul
	// MulI: Dst = Src1 * Imm. Pipelined, medium latency.
	MulI
	// Div: Dst = Src1 / Src2 (0 if Src2 == 0). Non-pipelined, long latency.
	Div
	// Sqrt: Dst = isqrt(|Src1|). Non-pipelined, long latency. This is the
	// VSQRTPD analog used by interference gadgets and targets.
	Sqrt

	// Load: Dst = Mem[Src1 + Imm].
	Load
	// Store: Mem[Src1 + Imm] = Src2.
	Store
	// Flush: evict the cache line containing address Src1 + Imm from the
	// entire hierarchy (clflush analog).
	Flush

	// RdCycle: Dst = current cycle count (emulator: instruction count). The
	// attacker's timer (rdtscp / clock-thread analog).
	RdCycle

	// Beq: if Src1 == Src2 branch to Target.
	Beq
	// Bne: if Src1 != Src2 branch to Target.
	Bne
	// Blt: if Src1 < Src2 branch to Target (signed).
	Blt
	// Bge: if Src1 >= Src2 branch to Target (signed).
	Bge
	// Jmp: unconditional branch to Target. Not predicted; never mispredicts.
	Jmp

	// Fence: speculation barrier. Younger instructions do not issue until
	// the fence retires. (lfence analog; also the §5.2 defense primitive.)
	Fence

	numOps
)

// opRow is everything static about one opcode. Every other per-opcode
// fact (def/use registers, printing, parsing) is derived from it.
type opRow struct {
	name  string
	class Class
	// syntax lists the operands in assembler order, one letter each:
	// d=Dst, a=Src1, b=Src2, i=Imm, m=Imm(Src1), t=Target.
	syntax string
}

var opTable = [numOps]opRow{
	Nop:     {"nop", ClassNone, ""},
	Halt:    {"halt", ClassNone, ""},
	MovI:    {"movi", ClassALU, "di"},
	Mov:     {"mov", ClassALU, "da"},
	Add:     {"add", ClassALU, "dab"},
	AddI:    {"addi", ClassALU, "dai"},
	Sub:     {"sub", ClassALU, "dab"},
	And:     {"and", ClassALU, "dab"},
	Or:      {"or", ClassALU, "dab"},
	Xor:     {"xor", ClassALU, "dab"},
	ShlI:    {"shli", ClassALU, "dai"},
	ShrI:    {"shri", ClassALU, "dai"},
	Mul:     {"mul", ClassMul, "dab"},
	MulI:    {"muli", ClassMul, "dai"},
	Div:     {"div", ClassSqrt, "dab"},
	Sqrt:    {"sqrt", ClassSqrt, "da"},
	Load:    {"load", ClassLoad, "dm"},
	Store:   {"store", ClassStore, "bm"},
	Flush:   {"flush", ClassLoad, "m"},
	RdCycle: {"rdcycle", ClassALU, "d"},
	Beq:     {"beq", ClassBranch, "abt"},
	Bne:     {"bne", ClassBranch, "abt"},
	Blt:     {"blt", ClassBranch, "abt"},
	Bge:     {"bge", ClassBranch, "abt"},
	Jmp:     {"jmp", ClassBranch, "t"},
	Fence:   {"fence", ClassNone, ""},
}

// decoded caches the class and register operands of each opcode, so the
// core's hot stages read a field instead of scanning a syntax string. It
// has a row for every uint8, so an invalid opcode reads as ClassNone with
// no operands and no bounds check is needed. Uses lists Src1 before Src2;
// no opcode reads Src2 without Src1.
var decoded = func() (f [256]struct {
	class Class
	dst   bool
	nsrc  int
}) {
	for o, row := range opTable {
		f[o].class = row.class
		f[o].dst = strings.Contains(row.syntax, "d")
		for _, k := range row.syntax {
			if k == 'a' || k == 'm' || k == 'b' {
				f[o].nsrc++
			}
		}
	}
	return f
}()

// String implements fmt.Stringer.
func (o Op) String() string {
	if o.Valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp returns the opcode whose mnemonic is name.
func ParseOp(name string) (Op, bool) {
	for o, row := range opTable {
		if row.name == name {
			return Op(o), true
		}
	}
	return 0, false
}

// Operands returns the opcode's operand syntax in assembler order, one
// letter per operand: d=Dst, a=Src1, b=Src2, i=Imm, m=Imm(Src1) (a memory
// operand), t=Target. Invalid opcodes have none.
func (o Op) Operands() string {
	if o.Valid() {
		return opTable[o].syntax
	}
	return ""
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Class is the execution resource class of an instruction. Each class maps
// to one or more execution ports in the out-of-order core.
type Class uint8

// Execution classes.
const (
	// ClassNone: instructions that occupy no execution unit (Nop, Fence,
	// Halt complete immediately at issue).
	ClassNone Class = iota
	// ClassALU: simple integer ops. Pipelined, short latency.
	ClassALU
	// ClassMul: multiplies. Pipelined, medium latency.
	ClassMul
	// ClassSqrt: Sqrt and Div. NON-pipelined, long latency, single port
	// (the paper's port-0 VSQRTPD analog).
	ClassSqrt
	// ClassLoad: loads and flushes. Handled by the load/store unit.
	ClassLoad
	// ClassStore: stores (address generation at issue; data written at
	// retire).
	ClassStore
	// ClassBranch: conditional branches and jumps.
	ClassBranch

	// NumClasses is the number of execution classes.
	NumClasses
)

var classNames = [NumClasses]string{
	ClassNone:   "none",
	ClassALU:    "alu",
	ClassMul:    "mul",
	ClassSqrt:   "sqrt",
	ClassLoad:   "load",
	ClassStore:  "store",
	ClassBranch: "branch",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// OpClass returns the execution class of an opcode.
func OpClass(o Op) Class { return decoded[o].class }

// Latencies (cycles from issue to completion) for each class, excluding
// memory operations whose latency depends on the cache hierarchy. These are
// defaults; the core's Config may override them.
const (
	// LatALU is the ALU latency.
	LatALU = 1
	// LatMul is the multiplier latency.
	LatMul = 4
	// LatSqrt is the Sqrt/Div latency. The unit is non-pipelined, so this
	// is also its occupancy (the paper's VSQRTPD: ~15-cycle latency,
	// ~9-12 cycle reciprocal throughput; we model full non-pipelining).
	LatSqrt = 12
	// LatBranch is the branch resolution latency once operands are ready.
	LatBranch = 1
)

// ClassLatency returns the default execution latency of class c. Memory
// classes return the minimum (address-generation) latency; the cache
// hierarchy adds the rest.
func ClassLatency(c Class) int {
	switch c {
	case ClassALU:
		return LatALU
	case ClassMul:
		return LatMul
	case ClassSqrt:
		return LatSqrt
	case ClassBranch:
		return LatBranch
	default:
		return 1
	}
}

// Pipelined reports whether execution units of class c accept a new
// operation every cycle. ClassSqrt units are non-pipelined: they are busy
// for the whole latency of the operation they execute.
func Pipelined(c Class) bool { return c != ClassSqrt }

// Inst is one instruction. The zero value is a Nop.
type Inst struct {
	Op  Op
	Dst Reg
	// Src1, Src2 are source registers. Which are meaningful depends on Op.
	Src1, Src2 Reg
	// Imm is the immediate operand (displacement for memory ops, value for
	// MovI/AddI/MulI, shift amount for ShlI/ShrI).
	Imm int64
	// Target is the branch target, an instruction index into the program.
	Target int
}

// HasDst reports whether the instruction writes a destination register.
func (in Inst) HasDst() bool { return decoded[in.Op].dst }

// Defs returns the register the instruction writes and whether it writes
// one at all — the def half of static use/def walking (Uses is the use
// half). It is HasDst expressed as data, so analyses can treat defs and
// uses uniformly.
func (in Inst) Defs() (Reg, bool) {
	if in.HasDst() {
		return in.Dst, true
	}
	return 0, false
}

// Uses returns the source registers read by the instruction. The second
// return value counts how many of the two entries are meaningful.
func (in Inst) Uses() (srcs [2]Reg, n int) {
	return [2]Reg{in.Src1, in.Src2}, decoded[in.Op].nsrc
}

// IsBranch reports whether the instruction is a control-flow instruction.
func (in Inst) IsBranch() bool { return in.Class() == ClassBranch }

// IsCondBranch reports whether the instruction is a conditional branch
// (predicted; may mispredict and squash).
func (in Inst) IsCondBranch() bool { return in.IsBranch() && in.Op != Jmp }

// IsMem reports whether the instruction accesses data memory.
func (in Inst) IsMem() bool {
	c := in.Class()
	return c == ClassLoad || c == ClassStore
}

// MaySquash reports whether the instruction can trigger a pipeline squash.
// Under the paper's Futuristic threat model every such instruction casts a
// speculative shadow; under the Spectre model only conditional branches do.
// Loads are included (they may fault / be replayed), matching the paper's
// description of the Futuristic model.
func (in Inst) MaySquash() bool {
	return in.IsCondBranch() || in.Op == Load || in.Op == Store
}

// Class returns the execution class of the instruction.
func (in Inst) Class() Class { return OpClass(in.Op) }

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	if !in.Op.Valid() {
		return fmt.Sprintf("%s ?", in.Op)
	}
	var b strings.Builder
	b.WriteString(in.Op.String())
	for i, k := range in.Op.Operands() {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		switch k {
		case 'd':
			b.WriteString(in.Dst.String())
		case 'a':
			b.WriteString(in.Src1.String())
		case 'b':
			b.WriteString(in.Src2.String())
		case 'i':
			fmt.Fprintf(&b, "%d", in.Imm)
		case 'm':
			fmt.Fprintf(&b, "%d(%s)", in.Imm, in.Src1)
		case 't':
			fmt.Fprintf(&b, "@%d", in.Target)
		}
	}
	return b.String()
}

// Validate reports an error when the instruction is malformed (bad opcode or
// out-of-range register). Branch targets are validated against a program by
// Program.Validate.
func (in Inst) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.HasDst() && !in.Dst.Valid() {
		return fmt.Errorf("isa: %s: invalid destination %s", in.Op, in.Dst)
	}
	srcs, n := in.Uses()
	for i := 0; i < n; i++ {
		if !srcs[i].Valid() {
			return fmt.Errorf("isa: %s: invalid source %s", in.Op, srcs[i])
		}
	}
	return nil
}
