package analysis

import (
	"strings"
	"testing"

	"dsr/internal/isa"
	"dsr/internal/prog"
)

func runPasses(p *prog.Program) []Diagnostic {
	return Run(p, DefaultPasses(), nil)
}

func hasDiag(ds []Diagnostic, pass string, sev Severity, substr string) bool {
	for _, d := range ds {
		if d.Pass == pass && d.Sev == sev && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

func oneFunc(f *prog.Function) *prog.Program {
	p := &prog.Program{Name: "t", Entry: f.Name}
	p.Functions = append(p.Functions, f)
	return p
}

func TestReservedRegPassFlagsG6G7(t *testing.T) {
	f := prog.NewLeaf("f").
		MovI(isa.G6, 1).
		Mov(isa.O0, isa.G7).
		RetLeaf().
		MustBuild()
	ds := runPasses(oneFunc(f))
	if !hasDiag(ds, PassReservedReg, Error, "reserved") {
		t.Fatalf("no reserved-register error in %v", ds)
	}
	n := 0
	for _, d := range ds {
		if d.Pass == PassReservedReg {
			n++
		}
	}
	if n != 2 {
		t.Errorf("reserved-reg diagnostics=%d, want 2 (write of g6, read of g7)", n)
	}
}

func TestReservedRegPassExemptsDSRShapes(t *testing.T) {
	// The canonical dispatch and prologue sequences are the sanctioned
	// uses; the pass must stay clean on transformed output.
	f := &prog.Function{Name: "f", FrameSize: prog.MinFrame, Code: []isa.Instr{
		{Op: isa.Set, Rd: isa.G7, Sym: "__dsr_offsets"},
		{Op: isa.Ld, Rd: isa.G7, Rs1: isa.G7, Imm: 0},
		{Op: isa.SaveX, Imm: prog.MinFrame, Rs2: isa.G7},
		{Op: isa.Set, Rd: isa.G6, Sym: "__dsr_ftable"},
		{Op: isa.Ld, Rd: isa.G6, Rs1: isa.G6, Imm: 4},
		{Op: isa.CallR, Rs1: isa.G6},
		{Op: isa.Ret},
	}}
	ds := runPasses(oneFunc(f))
	for _, d := range ds {
		if d.Pass == PassReservedReg {
			t.Errorf("sanctioned DSR shape flagged: %s", d)
		}
	}
}

func TestRetShapePass(t *testing.T) {
	// Leaf using ret, non-leaf using retl, save not first, fall-off end.
	leaf := &prog.Function{Name: "leaf", Leaf: true, Code: []isa.Instr{
		{Op: isa.Ret},
	}}
	nonleaf := &prog.Function{Name: "nl", FrameSize: prog.MinFrame, Code: []isa.Instr{
		{Op: isa.Nop},
		{Op: isa.Save, Imm: prog.MinFrame},
		{Op: isa.RetL},
	}}
	fall := &prog.Function{Name: "fall", Leaf: true, Code: []isa.Instr{
		{Op: isa.Nop},
	}}
	p := &prog.Program{Name: "t", Entry: "nl"}
	p.Functions = append(p.Functions, leaf, nonleaf, fall)
	ds := runPasses(p)
	for _, want := range []string{
		"leaf uses ret",
		"not the first instruction",
		"non-leaf uses retl",
		"does not start with its prologue save",
		"falls off the end",
	} {
		if !hasDiag(ds, PassRetShape, Error, want) {
			t.Errorf("missing ret-shape error %q in %v", want, ds)
		}
	}
}

func TestAlignmentPass(t *testing.T) {
	f := &prog.Function{Name: "f", Leaf: true, Code: []isa.Instr{
		{Op: isa.Ld, Rd: isa.O0, Rs1: isa.O1, Imm: 2},   // misaligned word
		{Op: isa.Ldub, Rd: isa.O0, Rs1: isa.O1, Imm: 3}, // bytes may be odd
		{Op: isa.RetL},
	}}
	ds := runPasses(oneFunc(f))
	if !hasDiag(ds, PassAlignment, Error, "not a multiple") {
		t.Error("misaligned word load not flagged")
	}
	for _, d := range ds {
		if d.Pass == PassAlignment && d.Index == 1 {
			t.Errorf("byte access flagged as misaligned: %s", d)
		}
	}
}

func TestFramePass(t *testing.T) {
	const frame = prog.MinFrame + 8
	f := &prog.Function{Name: "f", FrameSize: frame, Code: []isa.Instr{
		{Op: isa.Save, Imm: frame},
		{Op: isa.St, Rd: isa.L0, Rs1: isa.SP, Imm: 32},             // in the window save area
		{Op: isa.St, Rd: isa.L0, Rs1: isa.SP, Imm: -8},             // below %sp
		{Op: isa.St, Rd: isa.L0, Rs1: isa.SP, Imm: frame + 8},      // beyond the frame
		{Op: isa.St, Rd: isa.L0, Rs1: isa.SP, Imm: prog.LocalBase}, // fine
		{Op: isa.Ret},
	}}
	ds := runPasses(oneFunc(f))
	if !hasDiag(ds, PassFrame, Error, "window save area") {
		t.Error("save-area store not flagged")
	}
	if !hasDiag(ds, PassFrame, Error, "below %sp") {
		t.Error("below-sp store not flagged")
	}
	if !hasDiag(ds, PassFrame, Warning, "beyond the") {
		t.Error("out-of-frame store not flagged")
	}
	for _, d := range ds {
		if d.Pass == PassFrame && d.Index == 4 {
			t.Errorf("legal local store flagged: %s", d)
		}
	}

	short := &prog.Function{Name: "g", FrameSize: 64, Code: []isa.Instr{
		{Op: isa.Save, Imm: 64},
		{Op: isa.Ret},
	}}
	ds = runPasses(oneFunc(short))
	if !hasDiag(ds, PassFrame, Error, "minimum") {
		t.Error("sub-minimum frame not flagged")
	}
}

func TestSymbolsPass(t *testing.T) {
	f := &prog.Function{Name: "f", FrameSize: prog.MinFrame, Code: []isa.Instr{
		{Op: isa.Save, Imm: prog.MinFrame},
		{Op: isa.Call, Sym: "nowhere"},
		{Op: isa.Set, Rd: isa.L0, Sym: "nodata"},
		{Op: isa.Bl, Disp: 40},
		{Op: isa.Ret},
	}}
	ds := runPasses(oneFunc(f))
	if !hasDiag(ds, PassSymbols, Error, "undefined function") {
		t.Error("unresolved call not flagged")
	}
	if !hasDiag(ds, PassSymbols, Error, "undefined symbol") {
		t.Error("unresolved set not flagged")
	}
	if !hasDiag(ds, PassSymbols, Error, "leaves the function") {
		t.Error("out-of-range branch not flagged")
	}
}

func TestUnreachableAndDeadStorePasses(t *testing.T) {
	f := &prog.Function{Name: "f", Leaf: true, Code: []isa.Instr{
		{Op: isa.Mov, Rd: isa.L0, UseImm: true, Imm: 1}, // dead: overwritten below
		{Op: isa.Mov, Rd: isa.L0, UseImm: true, Imm: 2},
		{Op: isa.RetL},
		{Op: isa.Nop}, // unreachable
	}}
	ds := runPasses(oneFunc(f))
	if !hasDiag(ds, PassUnreachable, Warning, "unreachable") {
		t.Error("unreachable nop not flagged")
	}
	if !hasDiag(ds, PassDeadStore, Warning, "never read") {
		t.Error("dead store not flagged")
	}
}

func TestRunSortsAndResolvesLines(t *testing.T) {
	f := prog.NewLeaf("f").
		MovI(isa.G6, 1).
		RetLeaf().
		MustBuild()
	lines := func(fn string, index int) (int, bool) { return 100 + index, true }
	ds := Run(oneFunc(f), DefaultPasses(), lines)
	for _, d := range ds {
		if d.Fn == "f" && d.Index >= 0 && d.Line != 100+d.Index {
			t.Errorf("line not resolved: %+v", d)
		}
	}
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1], ds[i]
		if a.Fn > b.Fn || (a.Fn == b.Fn && a.Index > b.Index) {
			t.Errorf("diagnostics not sorted: %v before %v", a, b)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pass: "p", Sev: Error, Fn: "f", Index: 3, Line: 12, Msg: "boom"}
	s := d.String()
	for _, want := range []string{"error", "[p]", "f+3", "line 12", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic %q missing %q", s, want)
		}
	}
	if !HasErrors([]Diagnostic{{Sev: Error}}) || HasErrors(nil) {
		t.Error("HasErrors wrong")
	}
}
