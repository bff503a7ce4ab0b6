package isa

import (
	"strings"
	"testing"
)

func TestRegNames(t *testing.T) {
	cases := map[Reg]string{
		G0: "%g0", G7: "%g7",
		O0: "%o0", O6: "%sp", O7: "%o7",
		L0: "%l0", L7: "%l7",
		I0: "%i0", I6: "%fp", I7: "%i7",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("Reg(%d).String()=%q, want %q", r, r.String(), want)
		}
	}
	if SP != O6 || FP != I6 {
		t.Error("SP/FP aliases wrong")
	}
	if Reg(200).String() != "%r200" {
		t.Error("out-of-range reg name")
	}
}

func TestOpClassification(t *testing.T) {
	branches := []Op{Ba, Be, Bne, Bl, Ble, Bg, Bge, Fbe, Fbne, Fbl, Fbg}
	for _, o := range branches {
		if !o.IsBranch() {
			t.Errorf("%s should be a branch", o)
		}
	}
	nonBranches := []Op{Nop, Add, Call, CallR, Ret, Save, Ld, Fadd}
	for _, o := range nonBranches {
		if o.IsBranch() {
			t.Errorf("%s should not be a branch", o)
		}
	}
}

func TestEveryOpHasName(t *testing.T) {
	for o := Op(0); o < NumOps; o++ {
		if o.String() == "" || strings.HasPrefix(o.String(), "op(") {
			t.Errorf("op %d has no name", o)
		}
	}
}

func TestZeroValueIsNop(t *testing.T) {
	var in Instr
	if in.Op != Nop {
		t.Error("zero Instr is not a nop")
	}
	if in.String() != "nop" {
		t.Errorf("zero Instr disassembles to %q", in.String())
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Add, Rd: O0, Rs1: O1, Rs2: O2}, "add %o1, %o2, %o0"},
		{Instr{Op: Add, Rd: O0, Rs1: O1, Imm: 4, UseImm: true}, "add %o1, 4, %o0"},
		{Instr{Op: Cmp, Rs1: L0, Imm: 10, UseImm: true}, "cmp %l0, 10"},
		{Instr{Op: Set, Rd: G1, Sym: "table"}, "set table, %g1"},
		{Instr{Op: Set, Rd: G1, Imm: 42}, "set 42, %g1"},
		{Instr{Op: Mov, Rd: O0, Imm: 7, UseImm: true}, "mov 7, %o0"},
		{Instr{Op: Ld, Rd: L1, Rs1: SP, Imm: 8}, "ld [%sp+8], %l1"},
		{Instr{Op: St, Rd: L1, Rs1: SP, Imm: -4}, "st %l1, [%sp-4]"},
		{Instr{Op: FLd, FRd: 2, Rs1: O0, Imm: 0}, "fld [%o0+0], %f2"},
		{Instr{Op: FSt, FRs2: 3, Rs1: O0, Imm: 4}, "fst %f3, [%o0+4]"},
		{Instr{Op: Fadd, FRd: 0, FRs1: 1, FRs2: 2}, "fadd %f1, %f2, %f0"},
		{Instr{Op: Fsqrt, FRd: 0, FRs2: 2}, "fsqrt %f2, %f0"},
		{Instr{Op: Fcmp, FRs1: 1, FRs2: 2}, "fcmp %f1, %f2"},
		{Instr{Op: Bne, Disp: -3}, "bne -3"},
		{Instr{Op: Ba, Disp: 2}, "ba +2"},
		{Instr{Op: Call, Sym: "process"}, "call process"},
		{Instr{Op: CallR, Rs1: G6}, "callr %g6"},
		{Instr{Op: Ret}, "ret"},
		{Instr{Op: RetL}, "retl"},
		{Instr{Op: Save, Imm: 96}, "save 96"},
		{Instr{Op: SaveX, Imm: 96, Rs2: G7}, "savex 96, %g7"},
		{Instr{Op: Restore}, "restore"},
		{Instr{Op: IPoint, Imm: 1}, "ipoint 1"},
		{Instr{Op: Halt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}
