// Package isa defines the SPARC v8-flavoured instruction set executed by
// the simulated LEON3 core. It is deliberately a subset — enough to write
// the case-study application and the DSR runtime support code — but it
// keeps the SPARC features that made the paper's port challenging:
// register windows with SAVE/RESTORE (and their overflow/underflow stack
// traffic), a stack pointer that must stay double-word aligned, separate
// integer and floating-point register files, and no hardware coherence
// between the instruction and data paths.
//
// Instructions are fixed four-byte entities. Branches are PC-relative
// (Disp, in instructions); calls and address materialisation reference
// symbols that a loader resolves, which is the hook both the
// deterministic toolchain and the DSR runtime use to (re)locate code and
// data.
package isa

import "fmt"

// InstrBytes is the architectural size of one instruction.
const InstrBytes = 4

// Reg names an integer register in the current window: globals %g0-%g7,
// outs %o0-%o7, locals %l0-%l7, ins %i0-%i7. %g0 is hardwired to zero;
// %o6 is the stack pointer, %i6 the frame pointer, %o7/%i7 hold return
// addresses.
type Reg uint8

// Integer register names.
const (
	G0 Reg = iota
	G1
	G2
	G3
	G4
	G5
	G6
	G7
	O0
	O1
	O2
	O3
	O4
	O5
	O6 // stack pointer
	O7 // call return address
	L0
	L1
	L2
	L3
	L4
	L5
	L6
	L7
	I0
	I1
	I2
	I3
	I4
	I5
	I6 // frame pointer
	I7 // callee view of return address
	NumRegs
)

// SP and FP are the conventional stack and frame pointer aliases.
const (
	SP = O6
	FP = I6
)

var regNames = [NumRegs]string{
	"%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
	"%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%sp", "%o7",
	"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7",
	"%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%fp", "%i7",
}

func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("%%r%d", uint8(r))
}

// FReg names a single-precision floating point register %f0-%f15.
type FReg uint8

// NumFRegs is the size of the FP register file.
const NumFRegs = 16

func (f FReg) String() string { return fmt.Sprintf("%%f%d", uint8(f)) }

// Op is an operation code.
type Op uint8

// Operation codes. Grouped by class; the CPU charges per-class latencies.
const (
	Nop Op = iota
	Halt

	// Integer ALU: Rd = Rs1 op Src2.
	Add
	Sub
	And
	Or
	Xor
	Sll
	Srl
	Sra
	Mul
	Div

	// Cmp sets the integer condition codes from Rs1 - Src2.
	Cmp

	// Set materialises a 32-bit immediate or a symbol address into Rd
	// (the SETHI+OR pair of real SPARC, counted as one instruction here).
	Set
	// Mov copies Src2 into Rd.
	Mov

	// Memory: address is Rs1 + Imm. Ld/St move words, Ldub/Stb bytes.
	Ld
	St
	Ldub
	Stb

	// Floating point (single precision).
	FLd  // FRd = mem[Rs1+Imm]
	FSt  // mem[Rs1+Imm] = FRs2
	Fadd // FRd = FRs1 + FRs2
	Fsub
	Fmul
	Fdiv
	Fsqrt // FRd = sqrt(FRs2)
	Fcmp  // sets FP condition codes from FRs1 ? FRs2
	Fitos // FRd = float(int word in FRs2)
	Fstoi // FRd = int(float in FRs2), truncated

	// Branches: PC-relative by Disp instructions. Integer condition.
	Ba
	Be
	Bne
	Bl
	Ble
	Bg
	Bge
	// FP condition branches.
	Fbe
	Fbne
	Fbl
	Fbg

	// Control transfer.
	Call  // direct call to Sym; writes return address to %o7
	CallR // indirect call through Rs1 (DSR dispatch); writes %o7
	// Ret returns from a windowed routine: PC = %i7 + 4 and the register
	// window is restored in the same step (the simulator has no delay
	// slots, so SPARC's `ret; restore` pair is one instruction here).
	Ret
	RetL  // leaf return: PC = %o7 + 4, no window activity
	Save  // rotate window down; new SP = old SP - Imm
	SaveX // rotate window down; new SP = old SP - Imm - Rs2 (DSR stack offset)
	// Restore pops the window without jumping (rarely needed alone).
	Restore

	// IPoint is the RVS instrumentation point: records (Imm, cycle
	// counter) into the out-of-band trace buffer (§V of the paper).
	IPoint

	NumOps
)

var opNames = [NumOps]string{
	"nop", "halt",
	"add", "sub", "and", "or", "xor", "sll", "srl", "sra", "mul", "div",
	"cmp", "set", "mov",
	"ld", "st", "ldub", "stb",
	"fld", "fst", "fadd", "fsub", "fmul", "fdiv", "fsqrt", "fcmp", "fitos", "fstoi",
	"ba", "be", "bne", "bl", "ble", "bg", "bge",
	"fbe", "fbne", "fbl", "fbg",
	"call", "callr", "ret", "retl", "save", "savex", "restore",
	"ipoint",
}

func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether o is a conditional or unconditional branch.
func (o Op) IsBranch() bool {
	return o >= Ba && o <= Fbg
}

// Instr is one decoded instruction. The zero value is a Nop. A single
// struct covers all formats; unused fields are zero. UseImm selects the
// immediate as the second ALU source.
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	FRd    FReg
	FRs1   FReg
	FRs2   FReg
	Imm    int32
	UseImm bool
	// Sym is the symbol referenced by Set/Call; resolved at load time.
	Sym string
	// Disp is the branch displacement in instructions (can be negative).
	Disp int32
}

// String disassembles the instruction.
func (in *Instr) String() string {
	src2 := func() string {
		if in.UseImm {
			return fmt.Sprintf("%d", in.Imm)
		}
		return in.Rs2.String()
	}
	switch in.Op {
	case Nop, Halt, Restore:
		return in.Op.String()
	case Add, Sub, And, Or, Xor, Sll, Srl, Sra, Mul, Div:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rs1, src2(), in.Rd)
	case Cmp:
		return fmt.Sprintf("cmp %s, %s", in.Rs1, src2())
	case Set:
		if in.Sym != "" {
			return fmt.Sprintf("set %s, %s", in.Sym, in.Rd)
		}
		return fmt.Sprintf("set %d, %s", in.Imm, in.Rd)
	case Mov:
		return fmt.Sprintf("mov %s, %s", src2(), in.Rd)
	case Ld, Ldub:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.Rs1, in.Imm, in.Rd)
	case St, Stb:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Rd, in.Rs1, in.Imm)
	case FLd:
		return fmt.Sprintf("fld [%s%+d], %s", in.Rs1, in.Imm, in.FRd)
	case FSt:
		return fmt.Sprintf("fst %s, [%s%+d]", in.FRs2, in.Rs1, in.Imm)
	case Fadd, Fsub, Fmul, Fdiv:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.FRs1, in.FRs2, in.FRd)
	case Fsqrt, Fitos, Fstoi:
		return fmt.Sprintf("%s %s, %s", in.Op, in.FRs2, in.FRd)
	case Fcmp:
		return fmt.Sprintf("fcmp %s, %s", in.FRs1, in.FRs2)
	case Ba, Be, Bne, Bl, Ble, Bg, Bge, Fbe, Fbne, Fbl, Fbg:
		return fmt.Sprintf("%s %+d", in.Op, in.Disp)
	case Call:
		return fmt.Sprintf("call %s", in.Sym)
	case CallR:
		return fmt.Sprintf("callr %s", in.Rs1)
	case Ret, RetL:
		return in.Op.String()
	case Save:
		return fmt.Sprintf("save %d", in.Imm)
	case SaveX:
		return fmt.Sprintf("savex %d, %s", in.Imm, in.Rs2)
	case IPoint:
		return fmt.Sprintf("ipoint %d", in.Imm)
	default:
		return in.Op.String()
	}
}
