package asm

import (
	"fmt"
	"strconv"
	"strings"

	"specinterference/internal/isa"
)

// Assemble parses assembler text into a program. The syntax matches
// isa.Inst.String() output, one instruction per line:
//
//	start:
//	    movi r1, 64          ; comments run to end of line
//	    load r2, 8(r1)
//	    blt  r2, r1, start   # labels or numeric @targets
//	    halt
//
// Both ';' and '#' start comments. Branch targets may be label names or
// absolute instruction indices written as @N.
func Assemble(src string) (*isa.Program, error) {
	b := NewBuilder()
	lineNo := 0
	for _, rawLine := range strings.Split(src, "\n") {
		lineNo++
		line := stripComment(rawLine)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// A line may carry a leading "label:" before an instruction.
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if !isIdent(label) {
				return nil, fmt.Errorf("asm: line %d: bad label %q", lineNo, label)
			}
			if _, dup := b.symbols[label]; dup {
				return nil, fmt.Errorf("asm: line %d: duplicate label %q", lineNo, label)
			}
			b.Label(label)
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleInst(b, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo, err)
		}
	}
	return b.Build()
}

// MustAssemble is Assemble that panics on error, for tests and examples with
// literal source.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		return line[:i]
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// assembleInst parses one instruction by walking its opcode's operand
// syntax (isa.Op.Operands) over the comma-separated arguments.
func assembleInst(b *Builder, line string) error {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	op, ok := isa.ParseOp(strings.ToLower(mnemonic))
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	syntax := op.Operands()
	args := splitArgs(rest)
	if len(args) != len(syntax) {
		return fmt.Errorf("%s takes %d operands, got %d", op, len(syntax), len(args))
	}
	in := isa.Inst{Op: op}
	label := ""
	for i, arg := range args {
		var err error
		switch syntax[i] {
		case 'd':
			in.Dst, err = parseReg(arg)
		case 'a':
			in.Src1, err = parseReg(arg)
		case 'b':
			in.Src2, err = parseReg(arg)
		case 'i':
			in.Imm, err = parseImm(arg)
		case 'm':
			in.Imm, in.Src1, err = parseMemOperand(arg)
		case 't':
			in.Target, label, err = parseTarget(arg)
		}
		if err != nil {
			return fmt.Errorf("operand %d: %w", i+1, err)
		}
	}
	if label != "" {
		b.emitTo(in, label)
	} else {
		b.Emit(in)
	}
	return nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(s string) (isa.Reg, error) {
	l := strings.ToLower(s)
	if !strings.HasPrefix(l, "r") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(l[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMemOperand parses "off(base)" or "(base)".
func parseMemOperand(s string) (off int64, base isa.Reg, err error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("expected off(base), got %q", s)
	}
	if open > 0 {
		off, err = strconv.ParseInt(s[:open], 0, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q", s)
		}
	}
	base, err = parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad base in %q", s)
	}
	return off, base, nil
}

// parseTarget parses a branch target: an absolute "@N" instruction index,
// or a label name resolved when the program is built.
func parseTarget(s string) (pc int, label string, err error) {
	if strings.HasPrefix(s, "@") {
		pc, err = strconv.Atoi(s[1:])
		if err != nil {
			return 0, "", fmt.Errorf("bad numeric target %q", s)
		}
		return pc, "", nil
	}
	if !isIdent(s) {
		return 0, "", fmt.Errorf("bad branch target %q", s)
	}
	return 0, s, nil
}
