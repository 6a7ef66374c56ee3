package isa

import (
	"fmt"
	"math/bits"
)

// Eval computes the value a register-writing instruction produces from its
// source operand values a (Src1) and b (Src2). It is the one definition of
// the ISA's arithmetic, shared by the emulator, the out-of-order core and
// the static detector so all three compute every opcode identically.
//
// Loads and RdCycle are outside its domain: their values come from memory
// and from each machine's own clock. Eval panics on them and on every
// opcode that writes no register.
func Eval(in Inst, a, b int64) int64 {
	switch in.Op {
	case MovI:
		return in.Imm
	case Mov:
		return a
	case Add:
		return a + b
	case AddI:
		return a + in.Imm
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case ShlI:
		return a << uint(in.Imm&63)
	case ShrI:
		return int64(uint64(a) >> uint(in.Imm&63))
	case Mul:
		return a * b
	case MulI:
		return a * in.Imm
	case Div:
		// No faults in this machine (Meltdown-style exception speculation
		// is out of scope): division by zero yields 0.
		if b == 0 {
			return 0
		}
		return a / b
	case Sqrt:
		return ISqrt(a)
	default:
		panic(fmt.Sprintf("isa: Eval on %s", in.Op))
	}
}

// BranchTaken evaluates a conditional branch condition.
func BranchTaken(op Op, a, b int64) bool {
	switch op {
	case Beq:
		return a == b
	case Bne:
		return a != b
	case Blt:
		return a < b
	case Bge:
		return a >= b
	default:
		panic(fmt.Sprintf("isa: %s is not a conditional branch", op))
	}
}

// ISqrt is the ISA's integer square root of |x|. It computes on uint64, so
// |math.MinInt64| = 2^63 is representable.
func ISqrt(x int64) int64 {
	u := uint64(x)
	if x < 0 {
		u = -u
	}
	if u < 2 {
		return int64(u)
	}
	// Newton's method on integers, from a power of two at or above the root.
	r := uint64(1) << ((bits.Len64(u) + 1) / 2)
	for {
		nr := (r + u/r) / 2
		if nr >= r {
			return int64(r)
		}
		r = nr
	}
}
