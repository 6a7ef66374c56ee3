package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEval(t *testing.T) {
	cases := []struct {
		in   Inst
		a, b int64
		want int64
	}{
		{Inst{Op: MovI, Imm: -7}, 1, 2, -7},
		{Inst{Op: Mov}, 5, 9, 5},
		{Inst{Op: Add}, 3, 4, 7},
		{Inst{Op: Add}, math.MaxInt64, 1, math.MinInt64},
		{Inst{Op: AddI, Imm: -1}, 3, 99, 2},
		{Inst{Op: Sub}, 3, 4, -1},
		{Inst{Op: And}, 0b1100, 0b1010, 0b1000},
		{Inst{Op: Or}, 0b1100, 0b1010, 0b1110},
		{Inst{Op: Xor}, 0b1100, 0b1010, 0b0110},
		{Inst{Op: ShlI, Imm: 4}, 1, 0, 16},
		{Inst{Op: ShlI, Imm: 65}, 1, 0, 2}, // Imm&63
		{Inst{Op: ShrI, Imm: 64}, -8, 0, -8},
		{Inst{Op: ShrI, Imm: 1}, -2, 0, math.MaxInt64}, // logical, not arithmetic
		{Inst{Op: ShrI, Imm: 60}, -1, 0, 15},
		{Inst{Op: Mul}, -3, 4, -12},
		{Inst{Op: MulI, Imm: 6}, 7, 0, 42},
		{Inst{Op: Div}, 17, 5, 3},
		{Inst{Op: Div}, -17, 5, -3},
		{Inst{Op: Div}, 5, 0, 0},
		{Inst{Op: Div}, math.MinInt64, -1, math.MinInt64},
		{Inst{Op: Sqrt}, 17, 0, 4},
		{Inst{Op: Sqrt}, -16, 0, 4},
	}
	for _, c := range cases {
		if got := Eval(c.in, c.a, c.b); got != c.want {
			t.Errorf("Eval(%s, %d, %d) = %d, want %d", c.in, c.a, c.b, got, c.want)
		}
	}
}

// TestEvalDomain pins Eval's domain: it computes exactly the
// register-writing opcodes other than Load and RdCycle, and panics on
// everything else.
func TestEvalDomain(t *testing.T) {
	for op := Op(0); op <= numOps; op++ {
		in := Inst{Op: op}
		want := in.HasDst() && op != Load && op != RdCycle
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			Eval(in, 1, 1)
			return false
		}()
		if panicked == want {
			t.Errorf("Eval(%s): panicked = %v, want %v", op, panicked, !want)
		}
	}
}

func TestISqrt(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3,
		15: 3, 16: 4, 1 << 40: 1 << 20, -9: 3,
		math.MaxInt64: 3037000499, math.MinInt64: 3037000499}
	for x, want := range cases {
		if got := ISqrt(x); got != want {
			t.Errorf("ISqrt(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestISqrtProperty(t *testing.T) {
	f := func(xRaw int32) bool {
		x := int64(xRaw)
		r := ISqrt(x)
		ax := x
		if ax < 0 {
			ax = -ax
		}
		return r >= 0 && r*r <= ax && (r+1)*(r+1) > ax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestISqrtMatchesFloat(t *testing.T) {
	for x := int64(0); x < 10000; x += 7 {
		if got, want := ISqrt(x), int64(math.Sqrt(float64(x))); got != want {
			t.Fatalf("ISqrt(%d) = %d, float says %d", x, got, want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{Beq, 1, 1, true}, {Beq, 1, 2, false},
		{Bne, 1, 2, true}, {Bne, 2, 2, false},
		{Blt, -1, 0, true}, {Blt, 0, 0, false},
		{Bge, 0, 0, true}, {Bge, -1, 0, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%s, %d, %d) = %v", c.op, c.a, c.b, c.want)
		}
	}
}

func TestBranchTakenPanicsOnNonBranch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BranchTaken(Add, 0, 0)
}
