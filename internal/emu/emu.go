// Package emu is the architectural (golden-model) emulator: it executes
// programs sequentially with no microarchitecture at all. It serves three
// roles:
//
//  1. differential-testing oracle for the out-of-order core (final
//     architectural state must match),
//  2. perfect branch oracle — the recorded branch outcomes drive the
//     "NoSpec(E)" executions required by the §5.1 security definition,
//  3. a fast way for tests to compute expected register/memory values.
package emu

import (
	"errors"
	"fmt"

	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// ErrStepLimit is wrapped by Run's error when MaxSteps dynamic
// instructions execute without reaching a halt. Callers distinguish it
// with errors.Is: a step-limit run is not a verdict about the program —
// the accompanying Result is a consistent prefix (see Run) — and analyses
// built on the emulator (the NoSpec oracle, the static leak detector)
// must surface it as an error rather than classify from the prefix.
var ErrStepLimit = errors.New("step limit exceeded")

// BranchRecord is the outcome of one dynamic conditional-branch execution.
type BranchRecord struct {
	PC    int
	Taken bool
}

// Result is the outcome of an emulated run.
type Result struct {
	// Regs is the final architectural register file.
	Regs [isa.NumRegs]int64
	// InstCount is the number of dynamic instructions executed (including
	// the final halt).
	InstCount int
	// Branches lists every dynamic conditional branch outcome in order.
	Branches []BranchRecord
	// Halted is true when the program reached a halt (vs. the step limit).
	Halted bool
	// LoadAddrs lists every dynamic load address in order (used by priming
	// and security analyses).
	LoadAddrs []int64
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 2_000_000

// Machine is an architectural emulator instance.
type Machine struct {
	prog *isa.Program
	mem  *mem.Memory
	// MaxSteps bounds the dynamic instruction count; DefaultMaxSteps when 0.
	MaxSteps int
	// RecordBranches enables Branches in the result.
	RecordBranches bool
	// RecordLoads enables LoadAddrs in the result.
	RecordLoads bool

	regs [isa.NumRegs]int64
}

// New returns a Machine executing prog against memory m. The memory is
// mutated by stores.
func New(prog *isa.Program, m *mem.Memory) *Machine {
	return &Machine{prog: prog, mem: m}
}

// SetReg sets an initial register value.
func (e *Machine) SetReg(r isa.Reg, v int64) { e.regs[r] = v }

// Run executes the program from instruction 0 until halt or the step
// limit. On the step limit it returns BOTH a non-nil Result and a non-nil
// error wrapping ErrStepLimit: the Result is the consistent prefix of the
// aborted run — Regs is the register file after the last completed
// instruction, InstCount counts exactly the executed instructions, and
// Branches/LoadAddrs (when recording) list exactly the branches and loads
// among them, in order. Out-of-range PCs and unimplemented opcodes return
// a nil Result.
func (e *Machine) Run() (*Result, error) {
	max := e.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	res := &Result{}
	pc := 0
	for steps := 0; steps < max; steps++ {
		if pc < 0 || pc >= e.prog.Len() {
			return nil, fmt.Errorf("emu: pc %d out of range [0,%d)", pc, e.prog.Len())
		}
		in := e.prog.Insts[pc]
		res.InstCount++
		next := pc + 1
		switch in.Op {
		case isa.Nop, isa.Fence, isa.Flush:
			// Architecturally invisible. Flush affects only cache state.
		case isa.Halt:
			res.Halted = true
			res.Regs = e.regs
			return res, nil
		case isa.Load:
			addr := e.regs[in.Src1] + in.Imm
			e.regs[in.Dst] = e.mem.Read64(addr)
			if e.RecordLoads {
				res.LoadAddrs = append(res.LoadAddrs, addr)
			}
		case isa.Store:
			e.mem.Write64(e.regs[in.Src1]+in.Imm, e.regs[in.Src2])
		case isa.RdCycle:
			// Architecturally: a monotonic counter. The emulator has no
			// cycles; instruction count is the closest monotone analog.
			e.regs[in.Dst] = int64(res.InstCount)
		case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
			taken := isa.BranchTaken(in.Op, e.regs[in.Src1], e.regs[in.Src2])
			if e.RecordBranches {
				res.Branches = append(res.Branches, BranchRecord{PC: pc, Taken: taken})
			}
			if taken {
				next = in.Target
			}
		case isa.Jmp:
			next = in.Target
		default:
			if !in.HasDst() {
				return nil, fmt.Errorf("emu: unimplemented opcode %s at pc %d", in.Op, pc)
			}
			e.regs[in.Dst] = isa.Eval(in, e.regs[in.Src1], e.regs[in.Src2])
		}
		pc = next
	}
	res.Regs = e.regs
	return res, fmt.Errorf("emu: %w after %d instructions", ErrStepLimit, max)
}
