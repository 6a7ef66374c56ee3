package asm_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/core"
	"specinterference/internal/isa"
)

// The fuzzer round-trips arbitrary instruction sequences through
// build → render → assemble → compare: decode the fuzz bytes into a
// valid program, render it in assembler syntax, reassemble the text, and
// require the identical instruction sequence back. The seed corpus is
// the three interference-gadget sender programs (GDNPEU, GDMSHR, GIRS),
// so the fuzzer starts from exactly the shapes the attack framework
// emits.

// instBytes is the fuzz wire format per instruction: opcode, three
// register bytes, a 48-bit little-endian immediate and a 16-bit target.
const instBytes = 12

// opCount is the number of defined opcodes, probed via Op.Valid so the
// encoding tracks the ISA without exporting internals.
var opCount = func() int {
	n := 0
	for isa.Op(n).Valid() {
		n++
	}
	return n
}()

// encodeInsts renders instructions into the fuzz wire format.
func encodeInsts(insts []isa.Inst) []byte {
	out := make([]byte, 0, len(insts)*instBytes)
	for _, in := range insts {
		var buf [instBytes]byte
		buf[0] = byte(in.Op)
		buf[1], buf[2], buf[3] = byte(in.Dst), byte(in.Src1), byte(in.Src2)
		binary.LittleEndian.PutUint32(buf[4:8], uint32(in.Imm))
		binary.LittleEndian.PutUint16(buf[8:10], uint16(in.Imm>>32))
		binary.LittleEndian.PutUint16(buf[10:12], uint16(in.Target))
		out = append(out, buf[:]...)
	}
	return out
}

// decodeInsts parses fuzz bytes into structurally valid instructions:
// opcodes and registers wrap into range, immediates sign-extend from 48
// bits, branch targets wrap into the program once its length is known.
func decodeInsts(data []byte) []isa.Inst {
	n := len(data) / instBytes
	if n == 0 {
		return nil
	}
	insts := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*instBytes : (i+1)*instBytes]
		imm := int64(binary.LittleEndian.Uint32(b[4:8])) |
			int64(binary.LittleEndian.Uint16(b[8:10]))<<32
		// Sign-extend the 48-bit immediate.
		imm = imm << 16 >> 16
		insts = append(insts, isa.Inst{
			Op:     isa.Op(int(b[0]) % opCount),
			Dst:    isa.Reg(int(b[1]) % isa.NumRegs),
			Src1:   isa.Reg(int(b[2]) % isa.NumRegs),
			Src2:   isa.Reg(int(b[3]) % isa.NumRegs),
			Imm:    imm,
			Target: int(binary.LittleEndian.Uint16(b[10:12])) % n,
		})
	}
	for i := range insts {
		insts[i] = canonInst(insts[i])
	}
	return insts
}

// canonInst zeroes the fields an instruction's assembler syntax does not
// carry (a nop's decoded Dst, an add's Imm, ...), exactly the
// information a build → render → assemble round trip preserves.
func canonInst(in isa.Inst) isa.Inst {
	out := isa.Inst{Op: in.Op}
	if in.HasDst() {
		out.Dst = in.Dst
	}
	srcs, n := in.Uses()
	if n > 0 {
		out.Src1 = srcs[0]
	}
	if n > 1 {
		out.Src2 = srcs[1]
	}
	if strings.ContainsAny(in.Op.Operands(), "im") {
		out.Imm = in.Imm
	}
	if in.IsBranch() {
		out.Target = in.Target
	}
	return out
}

// render prints a program one instruction per line in the syntax
// Assemble parses (numeric @targets, no labels).
func render(insts []isa.Inst) string {
	var b strings.Builder
	for _, in := range insts {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// gadgetSeeds builds the three sender programs the attack framework
// generates, via the same path the harnesses use.
func gadgetSeeds(f *testing.F) [][]isa.Inst {
	f.Helper()
	var out [][]isa.Inst
	for _, spec := range []core.TrialSpec{
		{Gadget: core.GadgetNPEU, Ordering: core.OrderVDVD},
		{Gadget: core.GadgetMSHR, Ordering: core.OrderVDVD},
		{Gadget: core.GadgetRS, Ordering: core.OrderVIAD},
	} {
		_, _, v, err := core.NewAttackSystem(spec)
		if err != nil {
			f.Fatalf("building %s/%s seed: %v", spec.Gadget, spec.Ordering, err)
		}
		out = append(out, v.Prog.Insts)
	}
	return out
}

func FuzzAssemble(f *testing.F) {
	for _, insts := range gadgetSeeds(f) {
		f.Add(encodeInsts(insts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := decodeInsts(data)
		if len(insts) == 0 {
			t.Skip()
		}
		prog := &isa.Program{Insts: insts, CodeBase: isa.DefaultCodeBase}
		if err := prog.Validate(); err != nil {
			t.Fatalf("decoded program invalid (decoder bug): %v\n%s", err, render(insts))
		}
		text := render(insts)
		back, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("rendering of a valid program does not reassemble: %v\n%s", err, text)
		}
		if len(back.Insts) != len(insts) {
			t.Fatalf("round trip changed length: %d → %d\n%s", len(insts), len(back.Insts), text)
		}
		for i := range insts {
			if back.Insts[i] != insts[i] {
				t.Fatalf("inst %d round-tripped %v → %v\ntext: %s",
					i, insts[i], back.Insts[i], insts[i].String())
			}
		}
	})
}

// FuzzAssembleText feeds raw text straight into the assembler: any input
// must produce a program or an error, never a panic.
func FuzzAssembleText(f *testing.F) {
	f.Add("start:\n  movi r1, 64\n  load r2, 8(r1)\n  blt r2, r1, start\n  halt\n")
	f.Add("jmp @0\n")
	f.Add("store r5, -8(r1) ; comment\nfence # other comment\n")
	f.Add("label:label2: nop\n")
	f.Add("beq r1, r2, @-5\n")
	for _, insts := range gadgetSeeds(f) {
		f.Add(render(insts))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err == nil && p.Len() == 0 {
			t.Fatal("Assemble returned an empty program without error")
		}
	})
}
