package asm

import (
	"os"
	"strings"
	"testing"
	"testing/quick"

	"dsr/internal/cpu"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prng"
)

const sampleSource = `
; a complete program exercising most syntax
.program sample
.entry main

.data table size=32 align=8
.word 1 2 3 4
.word 5 6

.func main frame=96
    save 96
    ipoint 1
    set table, %l0
    mov 0, %l1          ; i
    mov 0, %l2          ; sum
loop:
    sll %l1, 2, %l3
    add %l0, %l3, %l4
    ld [%l4+0], %l5
    add %l2, %l5, %l2
    add %l1, 1, %l1
    cmp %l1, 6
    bl loop
    mov %l2, %o0
    call twice
    ipoint 2
    halt

.leaf twice
    add %o0, %o0, %o0
    retl
`

func assembleAndRun(t *testing.T, src string) *cpu.CPU {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := cpu.NewMemory()
	for _, iw := range img.Inits {
		data.StoreWord(iw.Addr, iw.Val)
	}
	il1, dl1, it, dt := platform.ProximaLEON3().Fronts(nullMem{})
	c := cpu.New(cpu.NewDefaultConfig(), img, il1, dl1, it, dt, data)
	c.Reset(0x6000_0000)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

type nullMem struct{}

func (nullMem) Read(mem.Addr, int) mem.Cycles  { return 0 }
func (nullMem) Write(mem.Addr, int) mem.Cycles { return 0 }

func TestAssembleAndExecute(t *testing.T) {
	c := assembleAndRun(t, sampleSource)
	// sum(1..6) = 21, doubled by the leaf = 42.
	if got := c.Reg(isa.O0); got != 42 {
		t.Errorf("result=%d, want 42", got)
	}
	if len(c.Trace()) != 2 {
		t.Errorf("trace=%v", c.Trace())
	}
}

func TestProgramMetadata(t *testing.T) {
	p, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sample" || p.Entry != "main" {
		t.Errorf("name=%q entry=%q", p.Name, p.Entry)
	}
	d := p.DataObject("table")
	if d == nil || d.Size != 32 || d.Align != 8 || len(d.Init) != 6 {
		t.Errorf("data=%+v", d)
	}
	if p.Function("twice") == nil || !p.Function("twice").Leaf {
		t.Error("leaf function lost")
	}
}

func TestDefaultEntryIsFirstFunction(t *testing.T) {
	p, err := Assemble(".func start\n save 96\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != "start" {
		t.Errorf("entry=%q", p.Entry)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
.func main   ; trailing comment
  save 96    ! sparc comment
             # empty-ish line

  halt
`
	if _, err := Assemble(src); err != nil {
		t.Fatal(err)
	}
}

func TestStackedLabels(t *testing.T) {
	p, err := Assemble(".func main\n save 96\na: b: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Function("main").Code) != 2 {
		t.Error("stacked labels emitted instructions")
	}
}

func TestSymbolAndHexImmediates(t *testing.T) {
	src := `
.data buf size=8
.func main
 save 96
 set 0xFFFFFFFF, %l0
 set -1, %l1
 set buf, %l2
 halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	code := p.Function("main").Code
	if code[1].Imm != -1 || code[2].Imm != -1 {
		t.Errorf("immediates: %v %v", code[1].Imm, code[2].Imm)
	}
	if code[3].Sym != "buf" {
		t.Errorf("symbol lost: %v", code[3])
	}
}

func TestNegativeMemOffset(t *testing.T) {
	p, err := Assemble(".func main\n save 96\n st %l1, [%sp-4]\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Function("main").Code[1]
	if in.Op != isa.St || in.Rs1 != isa.SP || in.Imm != -4 {
		t.Errorf("parsed %v", in)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"instruction outside function": "add %o0, %o1, %o2\n",
		"unknown mnemonic":             ".func f\n save 96\n frob %o0\n halt\n",
		"bad register":                 ".func f\n save 96\n add %q0, %o1, %o2\n halt\n",
		"wrong operand count":          ".func f\n save 96\n add %o0, %o1\n halt\n",
		"undefined label":              ".func f\n save 96\n ba nowhere\n halt\n",
		"duplicate label":              ".func f\n save 96\nx:\n nop\nx:\n halt\n",
		"label outside function":       "x: .func f\n save 96\n halt\n",
		"word outside data":            ".word 1 2\n.func f\n save 96\n halt\n",
		"data without size":            ".data d\n.func f\n save 96\n halt\n",
		"init overflow":                ".data d size=4\n.word 1 2\n.func f\n save 96\n halt\n",
		"unknown directive":            ".wat\n",
		"duplicate function":           ".func f\n save 96\n halt\n.func f\n save 96\n halt\n",
		"bad mem operand":              ".func f\n save 96\n ld %o0, %o1\n halt\n",
		"call immediate":               ".func f\n save 96\n call 42\n halt\n",
		"undefined call target":        ".func f\n save 96\n call ghost\n halt\n",
		"leaf with ret":                ".leaf f\n ret\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestErrorCarriesLine(t *testing.T) {
	_, err := Assemble(".func f\n save 96\n frob\n halt\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err=%v, want line 3", err)
	}
}

// randomInstr draws a random well-formed instruction for the round-trip
// property test.
func randomInstr(src prng.Source) isa.Instr {
	regs := []isa.Reg{isa.G1, isa.O0, isa.O3, isa.L2, isa.L7, isa.I1, isa.SP, isa.FP}
	r := func() isa.Reg { return regs[prng.Intn(src, len(regs))] }
	fr := func() isa.FReg { return isa.FReg(prng.Intn(src, isa.NumFRegs)) }
	imm := func() int32 { return int32(prng.Intn(src, 4096) - 2048) }
	switch prng.Intn(src, 12) {
	case 0:
		in := isa.Instr{Op: isa.Add, Rd: r(), Rs1: r()}
		if prng.Intn(src, 2) == 0 {
			in.Rs2 = r()
		} else {
			in.Imm, in.UseImm = imm(), true
		}
		return in
	case 1:
		return isa.Instr{Op: isa.Cmp, Rs1: r(), Imm: imm(), UseImm: true}
	case 2:
		return isa.Instr{Op: isa.Set, Rd: r(), Imm: imm()}
	case 3:
		return isa.Instr{Op: isa.Mov, Rd: r(), Rs2: r()}
	case 4:
		return isa.Instr{Op: isa.Ld, Rd: r(), Rs1: r(), Imm: imm() &^ 3}
	case 5:
		return isa.Instr{Op: isa.St, Rd: r(), Rs1: r(), Imm: imm() &^ 3}
	case 6:
		return isa.Instr{Op: isa.FLd, FRd: fr(), Rs1: r(), Imm: imm() &^ 3}
	case 7:
		return isa.Instr{Op: isa.Fadd, FRd: fr(), FRs1: fr(), FRs2: fr()}
	case 8:
		return isa.Instr{Op: isa.Fsqrt, FRd: fr(), FRs2: fr()}
	case 9:
		return isa.Instr{Op: isa.Fcmp, FRs1: fr(), FRs2: fr()}
	case 10:
		return isa.Instr{Op: isa.SaveX, Imm: 96 + imm()%8*8, Rs2: r()}
	default:
		return isa.Instr{Op: isa.IPoint, Imm: imm()}
	}
}

// Property: assembling the disassembler's output reproduces the
// instruction exactly.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := prng.NewMWC(2024)
	f := func() bool {
		want := randomInstr(src)
		text := ".func f frame=96\n save 96\n " + want.String() + "\n halt\n"
		p, err := Assemble(text)
		if err != nil {
			t.Logf("assemble %q: %v", want.String(), err)
			return false
		}
		got := p.Function("f").Code[1]
		if got != want {
			t.Logf("round trip %q: got %+v want %+v", want.String(), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: whole-function round trip through disassembly.
func TestFunctionRoundTrip(t *testing.T) {
	p, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(".program sample\n.entry main\n.data table size=32 align=8\n.word 1 2 3 4 5 6\n")
	for _, f := range p.Functions {
		if f.Leaf {
			b.WriteString(".leaf " + f.Name + "\n")
		} else {
			b.WriteString(".func " + f.Name + " frame=96\n")
		}
		for i := range f.Code {
			b.WriteString(" " + f.Code[i].String() + "\n")
		}
	}
	q, err := Assemble(b.String())
	if err != nil {
		t.Fatalf("reassembly failed: %v\nsource:\n%s", err, b.String())
	}
	for fi, f := range p.Functions {
		g := q.Functions[fi]
		if len(f.Code) != len(g.Code) {
			t.Fatalf("function %s length changed", f.Name)
		}
		for i := range f.Code {
			if f.Code[i] != g.Code[i] {
				t.Errorf("%s[%d]: %+v != %+v", f.Name, i, f.Code[i], g.Code[i])
			}
		}
	}
}

// TestTestdataProgramEndToEnd assembles the shipped example source and
// runs it, checking the observable result against a Go re-computation.
func TestTestdataProgramEndToEnd(t *testing.T) {
	src, err := os.ReadFile("testdata/uoa.s")
	if err != nil {
		t.Fatal(err)
	}
	c := assembleAndRun(t, string(src))

	// Reference: sensors 10..80 then zeros, limit 100, 64 entries.
	sensors := []uint32{10, 20, 30, 40, 50, 60, 70, 80}
	var sum uint32
	for i := 0; i < 64; i++ {
		var v uint32
		if i < len(sensors) {
			v = sensors[i]
		}
		if v > 100 {
			v = 100
		}
		sum += v
	}
	sum ^= sum << 5
	sum ^= sum >> 7
	if got := c.Reg(isa.O0); got != sum {
		t.Errorf("uoa result=%d, want %d", got, sum)
	}
	if len(c.Trace()) != 2 {
		t.Error("ipoints lost")
	}
}

func TestMoreErrorPaths(t *testing.T) {
	cases := map[string]string{
		"program arity":     ".program a b\n",
		"entry arity":       ".entry\n",
		"bad func attr":     ".func f color=red\n save 96\n halt\n",
		"bad frame value":   ".func f frame=abc\n save 96\n halt\n",
		"func without name": ".func\n",
		"bad data attr":     ".data d size=8 shape=round\n",
		"bad data value":    ".data d size=huge\n",
		"dup data":          ".data d size=8\n.data d size=8\n.func f\n save 96\n halt\n",
		"bad word":          ".data d size=8\n.word zz\n.func f\n save 96\n halt\n",
		"bad set operand":   ".func f\n save 96\n set [%o0+0], %l0\n halt\n",
		"bad fp register":   ".func f\n save 96\n fadd %f99, %f0, %f1\n halt\n",
		"bad branch target": ".func f\n save 96\n ba [%o0+0]\n halt\n",
		"bad savex reg":     ".func f\n save 96\n savex 96, 42\n halt\n",
		"bad ipoint":        ".func f\n save 96\n ipoint x\n halt\n",
		"bad callr":         ".func f\n save 96\n callr 7\n halt\n",
		"bad mem offset":    ".func f\n save 96\n ld [%o0*4], %l0\n halt\n",
		"bare mem reg bad":  ".func f\n save 96\n ld [nope], %l0\n halt\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Memory operand without offset is legal.
	if _, err := Assemble(".func f\n save 96\n ld [%o0], %l0\n halt\n"); err != nil {
		t.Errorf("offset-less memory operand rejected: %v", err)
	}
}
