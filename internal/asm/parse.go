package asm

import (
	"fmt"
	"strconv"
	"strings"

	"dsr/internal/isa"
)

// regNames maps register spellings (including the %sp/%fp aliases the
// disassembler emits) to register numbers.
var regNames = func() map[string]isa.Reg {
	m := map[string]isa.Reg{"%sp": isa.SP, "%fp": isa.FP}
	groups := []struct {
		prefix string
		base   isa.Reg
	}{{"%g", isa.G0}, {"%o", isa.O0}, {"%l", isa.L0}, {"%i", isa.I0}}
	for _, g := range groups {
		for i := 0; i < 8; i++ {
			m[fmt.Sprintf("%s%d", g.prefix, i)] = g.base + isa.Reg(i)
		}
	}
	return m
}()

func parseReg(tok string) (isa.Reg, error) {
	if r, ok := regNames[tok]; ok {
		return r, nil
	}
	return 0, fmt.Errorf("bad register %q", tok)
}

func parseFReg(tok string) (isa.FReg, error) {
	if strings.HasPrefix(tok, "%f") {
		if n, err := strconv.Atoi(tok[2:]); err == nil && n >= 0 && n < isa.NumFRegs {
			return isa.FReg(n), nil
		}
	}
	return 0, fmt.Errorf("bad fp register %q", tok)
}

// parseImm accepts decimal (optionally signed) and 0x hex immediates.
func parseImm(tok string) (int32, error) {
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		// Accept unsigned 32-bit hex like 0xFFFFFFFF.
		if u, uerr := strconv.ParseUint(tok, 0, 32); uerr == nil {
			return int32(uint32(u)), nil
		}
		return 0, err
	}
	if v < -(1<<31) || v > (1<<32)-1 {
		return 0, fmt.Errorf("immediate %q out of 32-bit range", tok)
	}
	return int32(v), nil
}

// parseMem parses "[%reg+imm]", "[%reg-imm]" or "[%reg]".
func parseMem(tok string) (isa.Reg, int32, error) {
	if len(tok) < 3 || !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	sep := strings.IndexAny(inner[1:], "+-")
	if sep < 0 {
		r, err := parseReg(inner)
		return r, 0, err
	}
	sep++ // account for the skipped first byte
	r, err := parseReg(inner[:sep])
	if err != nil {
		return 0, 0, err
	}
	imm, err := parseImm(inner[sep:])
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q: %v", tok, err)
	}
	return r, imm, nil
}

// src2 parses the flexible second ALU operand: register or immediate.
func parseSrc2(tok string, in *isa.Instr) error {
	if r, err := parseReg(tok); err == nil {
		in.Rs2 = r
		return nil
	}
	imm, err := parseImm(tok)
	if err != nil {
		return fmt.Errorf("operand %q is neither register nor immediate", tok)
	}
	in.Imm = imm
	in.UseImm = true
	return nil
}

// operands splits the operand list on commas, trimming blanks.
func operands(rest string) []string {
	if strings.TrimSpace(rest) == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

var aluOps = map[string]isa.Op{
	"add": isa.Add, "sub": isa.Sub, "and": isa.And, "or": isa.Or,
	"xor": isa.Xor, "sll": isa.Sll, "srl": isa.Srl, "sra": isa.Sra,
	"mul": isa.Mul, "div": isa.Div,
}

var fpu3Ops = map[string]isa.Op{
	"fadd": isa.Fadd, "fsub": isa.Fsub, "fmul": isa.Fmul, "fdiv": isa.Fdiv,
}

var fpu2Ops = map[string]isa.Op{
	"fsqrt": isa.Fsqrt, "fitos": isa.Fitos, "fstoi": isa.Fstoi,
}

var branchOps = map[string]isa.Op{
	"ba": isa.Ba, "be": isa.Be, "bne": isa.Bne, "bl": isa.Bl,
	"ble": isa.Ble, "bg": isa.Bg, "bge": isa.Bge,
	"fbe": isa.Fbe, "fbne": isa.Fbne, "fbl": isa.Fbl, "fbg": isa.Fbg,
}

var bareOps = map[string]isa.Op{
	"nop": isa.Nop, "halt": isa.Halt, "ret": isa.Ret, "retl": isa.RetL,
	"restore": isa.Restore,
}

// parseInstr assembles one instruction line (mnemonic already split off
// the label prefix).
func parseInstr(n int, text string, a *assembler) (isa.Instr, error) {
	mnemonic, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
	mnemonic = strings.ToLower(mnemonic)
	ops := operands(rest)
	var in isa.Instr

	want := func(k int) error {
		if len(ops) != k {
			return errf(n, "%s wants %d operands, got %d", mnemonic, k, len(ops))
		}
		return nil
	}

	switch {
	case bareOps[mnemonic] != 0 || mnemonic == "nop":
		if err := want(0); err != nil {
			return in, err
		}
		in.Op = bareOps[mnemonic]

	case aluOps[mnemonic] != 0:
		if err := want(3); err != nil {
			return in, err
		}
		in.Op = aluOps[mnemonic]
		r1, err := parseReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rs1 = r1
		if err := parseSrc2(ops[1], &in); err != nil {
			return in, errf(n, "%v", err)
		}
		rd, err := parseReg(ops[2])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rd = rd

	case mnemonic == "cmp":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.Cmp
		r1, err := parseReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rs1 = r1
		if err := parseSrc2(ops[1], &in); err != nil {
			return in, errf(n, "%v", err)
		}

	case mnemonic == "set":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.Set
		if imm, err := parseImm(ops[0]); err == nil {
			in.Imm = imm
		} else if isIdent(ops[0]) {
			in.Sym = ops[0]
		} else {
			return in, errf(n, "set wants an immediate or symbol, got %q", ops[0])
		}
		rd, err := parseReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rd = rd

	case mnemonic == "mov":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.Mov
		if err := parseSrc2(ops[0], &in); err != nil {
			return in, errf(n, "%v", err)
		}
		rd, err := parseReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rd = rd

	case mnemonic == "ld" || mnemonic == "ldub":
		if err := want(2); err != nil {
			return in, err
		}
		if mnemonic == "ld" {
			in.Op = isa.Ld
		} else {
			in.Op = isa.Ldub
		}
		r1, imm, err := parseMem(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		rd, err := parseReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rs1, in.Imm, in.Rd = r1, imm, rd

	case mnemonic == "st" || mnemonic == "stb":
		if err := want(2); err != nil {
			return in, err
		}
		if mnemonic == "st" {
			in.Op = isa.St
		} else {
			in.Op = isa.Stb
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		r1, imm, err := parseMem(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rd, in.Rs1, in.Imm = rd, r1, imm

	case mnemonic == "fld":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.FLd
		r1, imm, err := parseMem(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		fd, err := parseFReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rs1, in.Imm, in.FRd = r1, imm, fd

	case mnemonic == "fst":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.FSt
		fs, err := parseFReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		r1, imm, err := parseMem(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.FRs2, in.Rs1, in.Imm = fs, r1, imm

	case fpu3Ops[mnemonic] != 0:
		if err := want(3); err != nil {
			return in, err
		}
		in.Op = fpu3Ops[mnemonic]
		f1, err := parseFReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		f2, err := parseFReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		fd, err := parseFReg(ops[2])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.FRs1, in.FRs2, in.FRd = f1, f2, fd

	case fpu2Ops[mnemonic] != 0:
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = fpu2Ops[mnemonic]
		f2, err := parseFReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		fd, err := parseFReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.FRs2, in.FRd = f2, fd

	case mnemonic == "fcmp":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.Fcmp
		f1, err := parseFReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		f2, err := parseFReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.FRs1, in.FRs2 = f1, f2

	case branchOps[mnemonic] != 0:
		if err := want(1); err != nil {
			return in, err
		}
		in.Op = branchOps[mnemonic]
		if disp, err := parseImm(ops[0]); err == nil {
			in.Disp = disp
		} else if isIdent(ops[0]) {
			a.fixups = append(a.fixups, fixup{index: len(a.fn.Code), label: ops[0], line: n})
		} else {
			return in, errf(n, "branch target %q is neither label nor displacement", ops[0])
		}

	case mnemonic == "call":
		if err := want(1); err != nil {
			return in, err
		}
		if !isIdent(ops[0]) {
			return in, errf(n, "call wants a symbol, got %q", ops[0])
		}
		in.Op = isa.Call
		in.Sym = ops[0]

	case mnemonic == "callr":
		if err := want(1); err != nil {
			return in, err
		}
		in.Op = isa.CallR
		r, err := parseReg(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Rs1 = r

	case mnemonic == "save":
		if err := want(1); err != nil {
			return in, err
		}
		in.Op = isa.Save
		imm, err := parseImm(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Imm = imm

	case mnemonic == "savex":
		if err := want(2); err != nil {
			return in, err
		}
		in.Op = isa.SaveX
		imm, err := parseImm(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		r, err := parseReg(ops[1])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Imm, in.Rs2 = imm, r

	case mnemonic == "ipoint":
		if err := want(1); err != nil {
			return in, err
		}
		in.Op = isa.IPoint
		imm, err := parseImm(ops[0])
		if err != nil {
			return in, errf(n, "%v", err)
		}
		in.Imm = imm

	default:
		return in, errf(n, "unknown mnemonic %q", mnemonic)
	}
	return in, nil
}
