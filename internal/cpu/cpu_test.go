package cpu

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prog"
)

// nullMem is a zero-latency timing backend for isolating CPU semantics.
type nullMem struct{}

func (nullMem) Read(mem.Addr, int) mem.Cycles  { return 0 }
func (nullMem) Write(mem.Addr, int) mem.Cycles { return 0 }

const stackTop = 0x6000_0000

// runProgram loads p and runs it to completion on both dispatchers
// (runBoth), returning the engine's CPU for inspection.
func runProgram(t *testing.T, p *prog.Program) *CPU {
	t.Helper()
	c, err := runBoth(t, p, NewDefaultConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

// runBoth loads p and runs it under cfg on the engine and on the
// interpreter, both over real L1s and TLBs in front of a latency-free
// memory, and fails the test unless the two agree on every observable
// and on the error. It returns the engine's CPU and error.
func runBoth(t *testing.T, p *prog.Program, cfg Config) (*CPU, error) {
	t.Helper()
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cpus [2]*CPU
	var errs [2]error
	for i, interp := range []bool{false, true} {
		c := newNullCPU(cfg, img)
		reload(c, img)
		c.forceInterp = interp
		c.Reset(stackTop)
		_, errs[i] = c.Run()
		cpus[i] = c
	}
	if !cpus[0].engineOK() {
		t.Fatal("engineOK() = false; runBoth would compare the interpreter with itself")
	}
	if fe, se := errText(errs[0]), errText(errs[1]); fe != se {
		t.Fatalf("engine error %q, interpreter error %q", fe, se)
	}
	if fs, ss := captureState(cpus[0]), captureState(cpus[1]); !reflect.DeepEqual(fs, ss) {
		t.Fatalf("engine and interpreter diverged:\n fast: %s\n slow: %s", stateSummary(fs), stateSummary(ss))
	}
	return cpus[0], errs[0]
}

func singleFunc(t *testing.T, b *prog.Builder) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: "t", Entry: "main"}
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestArithmetic(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 6).
		MovI(isa.L1, 7).
		Mul(isa.L2, isa.L0, isa.L1).       // 42
		AddI(isa.L2, isa.L2, 100).         // 142
		SubI(isa.L2, isa.L2, 2).           // 140
		OpI(isa.Div, isa.L2, isa.L2, 20).  // 7
		SllI(isa.L3, isa.L2, 4).           // 112
		SrlI(isa.L4, isa.L3, 2).           // 28
		OpI(isa.Xor, isa.L5, isa.L4, 0xF). // 19
		OpI(isa.Or, isa.L5, isa.L5, 0x20). // 51
		AndI(isa.L5, isa.L5, 0x3F).        // 51
		Halt()
	c := runProgram(t, singleFunc(t, b))
	want := map[isa.Reg]uint32{isa.L2: 7, isa.L3: 112, isa.L4: 28, isa.L5: 51}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("%s=%d, want %d", r, got, w)
		}
	}
}

func TestSignedArithmetic(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, -20).
		OpI(isa.Sra, isa.L1, isa.L0, 2).  // -5
		OpI(isa.Div, isa.L2, isa.L0, -4). // 5
		MulI(isa.L3, isa.L0, -3).         // 60
		Halt()
	c := runProgram(t, singleFunc(t, b))
	if got := int32(c.Reg(isa.L1)); got != -5 {
		t.Errorf("sra=%d, want -5", got)
	}
	if got := int32(c.Reg(isa.L2)); got != 5 {
		t.Errorf("div=%d, want 5", got)
	}
	if got := int32(c.Reg(isa.L3)); got != 60 {
		t.Errorf("mul=%d, want 60", got)
	}
}

func TestG0IsHardwiredZero(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.G0, 99).
		Add(isa.L0, isa.G0, isa.G0).
		Halt()
	c := runProgram(t, singleFunc(t, b))
	if c.Reg(isa.G0) != 0 || c.Reg(isa.L0) != 0 {
		t.Error("register g0 is writable")
	}
}

func TestBranchLoop(t *testing.T) {
	// sum 1..10 = 55
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0). // sum
		MovI(isa.L1, 1). // i
		Label("loop").
		Add(isa.L0, isa.L0, isa.L1).
		AddI(isa.L1, isa.L1, 1).
		CmpI(isa.L1, 10).
		Ble("loop").
		Halt()
	c := runProgram(t, singleFunc(t, b))
	if got := c.Reg(isa.L0); got != 55 {
		t.Errorf("sum=%d, want 55", got)
	}
	if c.Counters().TakenBranches != 9 {
		t.Errorf("taken branches=%d, want 9", c.Counters().TakenBranches)
	}
}

func TestAllBranchConditions(t *testing.T) {
	// For (a,b) pairs, check each condition branch's takenness by setting
	// a marker register.
	type tc struct {
		op       isa.Op
		a, b     int32
		expected bool
	}
	cases := []tc{
		{isa.Be, 5, 5, true}, {isa.Be, 5, 6, false},
		{isa.Bne, 5, 6, true}, {isa.Bne, 5, 5, false},
		{isa.Bl, -1, 0, true}, {isa.Bl, 0, 0, false}, {isa.Bl, 1, 0, false},
		{isa.Ble, 0, 0, true}, {isa.Ble, -2, 0, true}, {isa.Ble, 1, 0, false},
		{isa.Bg, 1, 0, true}, {isa.Bg, 0, 0, false}, {isa.Bg, -1, 0, false},
		{isa.Bge, 0, 0, true}, {isa.Bge, 3, 0, true}, {isa.Bge, -3, 0, false},
		{isa.Ba, 0, 0, true},
	}
	for _, tcase := range cases {
		b := prog.NewFunc("main", prog.MinFrame).
			Prologue().
			MovI(isa.L0, tcase.a).
			MovI(isa.L1, tcase.b).
			MovI(isa.L2, 0).
			Cmp(isa.L0, isa.L1).
			Emit(isa.Instr{Op: tcase.op, Disp: 2}). // skip the marker
			MovI(isa.L2, 1).
			Halt()
		c := runProgram(t, singleFunc(t, b))
		skipped := c.Reg(isa.L2) == 0
		if skipped != tcase.expected {
			t.Errorf("%s with a=%d b=%d: taken=%v, want %v",
				tcase.op, tcase.a, tcase.b, skipped, tcase.expected)
		}
	}
}

// TestFPBranchConditions: each FP branch against each outcome of
// fcmp — less, equal, greater and unordered (a NaN operand).
func TestFPBranchConditions(t *testing.T) {
	nan := float32(math.NaN())
	cases := []struct {
		a, b  float32
		taken map[isa.Op]bool
	}{
		{1, 2, map[isa.Op]bool{isa.Fbl: true, isa.Fbne: true}},
		{2, 2, map[isa.Op]bool{isa.Fbe: true}},
		{3, 2, map[isa.Op]bool{isa.Fbg: true, isa.Fbne: true}},
		{nan, 2, map[isa.Op]bool{isa.Fbne: true}},
	}
	for _, tc := range cases {
		for _, op := range []isa.Op{isa.Fbe, isa.Fbne, isa.Fbl, isa.Fbg} {
			p := &prog.Program{Name: "t", Entry: "main"}
			if err := p.AddData(&prog.DataObject{Name: "v", Size: 8,
				Init: []uint32{math.Float32bits(tc.a), math.Float32bits(tc.b)}}); err != nil {
				t.Fatal(err)
			}
			b := prog.NewFunc("main", prog.MinFrame).
				Prologue().
				Set(isa.L0, "v").
				FLd(0, isa.L0, 0).
				FLd(1, isa.L0, 4).
				MovI(isa.L2, 0).
				Fcmp(0, 1).
				Emit(isa.Instr{Op: op, Disp: 2}). // skip the marker
				MovI(isa.L2, 1).
				Halt()
			if err := p.AddFunction(b.MustBuild()); err != nil {
				t.Fatal(err)
			}
			c := runProgram(t, p)
			if taken := c.Reg(isa.L2) == 0; taken != tc.taken[op] {
				t.Errorf("%s after fcmp %v, %v: taken=%v, want %v", op, tc.a, tc.b, taken, tc.taken[op])
			}
		}
	}
}

func TestMemoryWordOps(t *testing.T) {
	p := &prog.Program{Name: "t", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "buf", Size: 64, Init: []uint32{11, 22}}); err != nil {
		t.Fatal(err)
	}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "buf").
		Ld(isa.L1, isa.L0, 0). // 11
		Ld(isa.L2, isa.L0, 4). // 22
		Add(isa.L3, isa.L1, isa.L2).
		St(isa.L3, isa.L0, 8). // buf[2] = 33
		Ld(isa.L4, isa.L0, 8).
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	c := runProgram(t, p)
	if got := c.Reg(isa.L4); got != 33 {
		t.Errorf("readback=%d, want 33", got)
	}
	if c.Counters().Loads != 3 || c.Counters().Stores != 1 {
		t.Errorf("loads/stores=%d/%d, want 3/1", c.Counters().Loads, c.Counters().Stores)
	}
}

func TestMemoryByteOps(t *testing.T) {
	p := &prog.Program{Name: "t", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "pix", Size: 8}); err != nil {
		t.Fatal(err)
	}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "pix").
		MovI(isa.L1, 0xAB).
		Stb(isa.L1, isa.L0, 0).
		MovI(isa.L2, 0xCD).
		Stb(isa.L2, isa.L0, 3).
		Ldub(isa.L3, isa.L0, 0).
		Ldub(isa.L4, isa.L0, 3).
		Ldub(isa.L5, isa.L0, 1). // untouched → 0
		Ld(isa.L6, isa.L0, 0).   // big-endian word: AB 00 00 CD
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	c := runProgram(t, p)
	if c.Reg(isa.L3) != 0xAB || c.Reg(isa.L4) != 0xCD || c.Reg(isa.L5) != 0 {
		t.Errorf("byte readbacks=%#x %#x %#x", c.Reg(isa.L3), c.Reg(isa.L4), c.Reg(isa.L5))
	}
	if got := c.Reg(isa.L6); got != 0xAB0000CD {
		t.Errorf("big-endian word=%#x, want 0xAB0000CD", got)
	}
}

func TestCallAndReturn(t *testing.T) {
	// callee(a, b) = a*2 + b, using the SPARC convention: caller's %o0/%o1
	// become callee's %i0/%i1; result back in callee's %i0 = caller's %o0.
	callee := prog.NewFunc("callee", prog.MinFrame).
		Prologue().
		Add(isa.I0, isa.I0, isa.I0).
		Add(isa.I0, isa.I0, isa.I1).
		Epilogue().
		MustBuild()
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.O0, 20).
		MovI(isa.O1, 2).
		Call("callee").
		Mov(isa.L0, isa.O0). // 42
		Halt().
		MustBuild()
	p := &prog.Program{Name: "t", Entry: "main"}
	for _, f := range []*prog.Function{main, callee} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	c := runProgram(t, p)
	if got := c.Reg(isa.L0); got != 42 {
		t.Errorf("call result=%d, want 42", got)
	}
	if c.Counters().Calls != 1 {
		t.Errorf("calls=%d, want 1", c.Counters().Calls)
	}
}

func TestLeafCall(t *testing.T) {
	leaf := prog.NewLeaf("triple").
		MulI(isa.O0, isa.O0, 3).
		RetLeaf().
		MustBuild()
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.O0, 14).
		Call("triple").
		Mov(isa.L0, isa.O0).
		Halt().
		MustBuild()
	p := &prog.Program{Name: "t", Entry: "main"}
	for _, f := range []*prog.Function{main, leaf} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	c := runProgram(t, p)
	if got := c.Reg(isa.L0); got != 42 {
		t.Errorf("leaf result=%d, want 42", got)
	}
}

// Recursive factorial deep enough to overflow the 8 register windows:
// exercises spill and fill and proves values survive the round trip.
func TestWindowOverflowUnderflow(t *testing.T) {
	// fact(n): if n <= 1 return 1 else return n * fact(n-1)
	fact := prog.NewFunc("fact", prog.MinFrame).
		Prologue().
		CmpI(isa.I0, 1).
		Bg("recurse").
		MovI(isa.I0, 1).
		Epilogue().
		Label("recurse").
		SubI(isa.O0, isa.I0, 1).
		Call("fact").
		Mul(isa.I0, isa.I0, isa.O0).
		Epilogue().
		MustBuild()
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.O0, 12). // depth 12 > 7 usable windows
		Call("fact").
		Mov(isa.L0, isa.O0).
		Halt().
		MustBuild()
	p := &prog.Program{Name: "t", Entry: "main"}
	for _, f := range []*prog.Function{main, fact} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	c := runProgram(t, p)
	if got := c.Reg(isa.L0); got != 479001600 { // 12!
		t.Errorf("fact(12)=%d, want 479001600", got)
	}
	ctr := c.Counters()
	if ctr.WindowOverflows == 0 || ctr.WindowUnderflows == 0 {
		t.Errorf("overflows=%d underflows=%d, want both > 0",
			ctr.WindowOverflows, ctr.WindowUnderflows)
	}
	// One more spill than fills is expected: the bottom frame is spilled
	// on the way down but main halts without returning into it.
	if ctr.WindowOverflows != ctr.WindowUnderflows+1 {
		t.Errorf("overflow/underflow mismatch: %d vs %d (want spills = fills+1)",
			ctr.WindowOverflows, ctr.WindowUnderflows)
	}
}

func TestFloatingPoint(t *testing.T) {
	p := &prog.Program{Name: "t", Entry: "main"}
	fbits := func(f float32) uint32 { return math.Float32bits(f) }
	if err := p.AddData(&prog.DataObject{Name: "vals", Size: 16,
		Init: []uint32{fbits(3.0), fbits(4.0)}}); err != nil {
		t.Fatal(err)
	}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "vals").
		FLd(0, isa.L0, 0). // f0 = 3
		FLd(1, isa.L0, 4). // f1 = 4
		Fmul(2, 0, 0).     // 9
		Fmul(3, 1, 1).     // 16
		Fadd(4, 2, 3).     // 25
		Fsqrt(5, 4).       // 5
		Fdiv(6, 4, 5).     // 5
		Fsub(7, 6, 5).     // 0
		FSt(5, isa.L0, 8).
		Ld(isa.L1, isa.L0, 8).
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	c := runProgram(t, p)
	if got := c.FReg(5); got != 5.0 {
		t.Errorf("hypot=%f, want 5", got)
	}
	if got := c.FReg(7); got != 0.0 {
		t.Errorf("f7=%f, want 0", got)
	}
	if got := c.Reg(isa.L1); got != fbits(5.0) {
		t.Errorf("stored float bits=%#x, want %#x", got, fbits(5.0))
	}
	// fmul×2, fadd, fsqrt, fdiv, fsub = 6 FPU ops (loads/stores excluded).
	if got := c.Counters().FPUOps; got != 6 {
		t.Errorf("FPU ops=%d, want 6", got)
	}
}

func TestFPBranchesAndConversion(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 7).
		St(isa.L0, isa.SP, prog.LocalBase).
		FLd(0, isa.SP, prog.LocalBase). // raw int bits 7
		Fitos(1, 0).                    // 7.0
		Fstoi(2, 1).                    // back to int bits
		FSt(2, isa.SP, prog.LocalBase+4).
		Ld(isa.L1, isa.SP, prog.LocalBase+4). // 7
		Fcmp(1, 1).
		MovI(isa.L2, 0).
		Fbne("skip").
		MovI(isa.L2, 1). // executed: 7.0 == 7.0
		Label("skip").
		Halt()
	c := runProgram(t, singleFunc(t, b))
	if got := c.Reg(isa.L1); got != 7 {
		t.Errorf("fstoi round trip=%d, want 7", got)
	}
	if got := c.Reg(isa.L2); got != 1 {
		t.Error("fbne taken on equal operands")
	}
}

func TestStackLocalsAndFramePointer(t *testing.T) {
	// Write a local in the callee frame, confirm the caller's SP is
	// restored after return.
	callee := prog.NewFunc("callee", prog.MinFrame+16).
		Prologue().
		MovI(isa.L0, 77).
		St(isa.L0, isa.SP, prog.LocalBase).
		Ld(isa.I0, isa.SP, prog.LocalBase).
		Epilogue().
		MustBuild()
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Mov(isa.L1, isa.SP).
		Call("callee").
		Mov(isa.L0, isa.O0).
		Sub(isa.L2, isa.L1, isa.SP). // 0 if SP restored
		Halt().
		MustBuild()
	p := &prog.Program{Name: "t", Entry: "main"}
	for _, f := range []*prog.Function{main, callee} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	c := runProgram(t, p)
	if got := c.Reg(isa.L0); got != 77 {
		t.Errorf("local readback=%d, want 77", got)
	}
	if got := c.Reg(isa.L2); got != 0 {
		t.Errorf("sp not restored, delta=%d", int32(got))
	}
}

func TestSaveXAppliesOffset(t *testing.T) {
	// SaveX with a 16-byte offset in %g7 must lower SP by frame+16.
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue() // establish a frame so we can compare
	b.Mov(isa.L1, isa.SP).
		MovI(isa.G7, 16).
		Emit(isa.Instr{Op: isa.SaveX, Imm: prog.MinFrame, Rs2: isa.G7}).
		Mov(isa.I0, isa.SP). // inner %i0 is the outer %o0
		Emit(isa.Instr{Op: isa.Restore}).
		Sub(isa.L2, isa.L1, isa.O0). // L1 - innerSP = frame+16
		Halt()
	c := runProgram(t, singleFunc(t, b))
	if got := c.Reg(isa.L2); got != prog.MinFrame+16 {
		t.Errorf("savex delta=%d, want %d", got, prog.MinFrame+16)
	}
}

func TestSaveMisalignedOffsetFails(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.G7, 4). // not a multiple of 8
		Emit(isa.Instr{Op: isa.SaveX, Imm: prog.MinFrame, Rs2: isa.G7}).
		Halt()
	if _, err := runBoth(t, singleFunc(t, b), NewDefaultConfig()); err == nil {
		t.Error("misaligned stack offset accepted")
	}
}

func TestIPointTrace(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		IPoint(1).
		MovI(isa.L0, 5).
		IPoint(2).
		Halt()
	c := runProgram(t, singleFunc(t, b))
	tr := c.Trace()
	if len(tr) != 2 || tr[0].ID != 1 || tr[1].ID != 2 {
		t.Fatalf("trace=%v", tr)
	}
	if tr[1].Cycles <= tr[0].Cycles {
		t.Error("trace timestamps not increasing")
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	for _, useImm := range []bool{false, true} {
		b := prog.NewFunc("main", prog.MinFrame).
			Prologue().
			MovI(isa.L0, 1)
		if useImm {
			b.OpI(isa.Div, isa.L1, isa.L0, 0)
		} else {
			b.Op3(isa.Div, isa.L1, isa.L0, isa.G0)
		}
		b.Halt()
		_, err := runBoth(t, singleFunc(t, b), NewDefaultConfig())
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("imm=%v: err=%v, want a division-by-zero trap", useImm, err)
		}
	}
}

// TestMisalignedLoadTraps: every word access — integer and FP loads,
// and the stores too — traps on a misaligned address, after the
// accesses before it retired, identically on both dispatchers.
func TestMisalignedLoadTraps(t *testing.T) {
	for _, op := range []isa.Op{isa.Ld, isa.St, isa.FLd, isa.FSt} {
		b := prog.NewFunc("main", prog.MinFrame).
			Prologue().
			MovI(isa.L0, 2).
			St(isa.L0, isa.SP, prog.LocalBase). // an aligned access first
			Emit(isa.Instr{Op: op, Rd: isa.L1, Rs1: isa.L0, FRd: 1, FRs2: 1}).
			Halt()
		_, err := runBoth(t, singleFunc(t, b), NewDefaultConfig())
		if err == nil || !strings.Contains(err.Error(), "misaligned "+op.String()) {
			t.Errorf("%s: err=%v, want a misalignment trap", op, err)
		}
	}
}

func TestWatchdog(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Label("spin").
		Ba("spin").
		Halt()
	cfg := NewDefaultConfig()
	cfg.MaxInstrs = 1000
	if _, err := runBoth(t, singleFunc(t, b), cfg); err != ErrMaxInstrs {
		t.Errorf("err=%v, want ErrMaxInstrs", err)
	}
}

func TestCycleAccounting(t *testing.T) {
	// With a zero-latency hierarchy the cycle count is fully determined:
	// save(1) + mov(1) + mul(1+4) + taken ba(1+1) + halt(1).
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 3).
		MulI(isa.L1, isa.L0, 3).
		Ba("end").
		Nop().
		Label("end").
		Halt()
	c := runProgram(t, singleFunc(t, b))
	want := mem.Cycles(1 + 1 + 5 + 2 + 1)
	if c.Cycles() != want {
		t.Errorf("cycles=%d, want %d", c.Cycles(), want)
	}
}

func TestFPJitterIsValueDependent(t *testing.T) {
	// Two fdivs with different divisor bit patterns should usually cost
	// differently; same divisor must cost the same.
	run := func(d float32) mem.Cycles {
		p := &prog.Program{Name: "t", Entry: "main"}
		if err := p.AddData(&prog.DataObject{Name: "v", Size: 8,
			Init: []uint32{math.Float32bits(10), math.Float32bits(d)}}); err != nil {
			t.Fatal(err)
		}
		b := prog.NewFunc("main", prog.MinFrame).
			Prologue().
			Set(isa.L0, "v").
			FLd(0, isa.L0, 0).
			FLd(1, isa.L0, 4).
			Fdiv(2, 0, 1).
			Halt()
		if err := p.AddFunction(b.MustBuild()); err != nil {
			t.Fatal(err)
		}
		return runProgram(t, p).Cycles()
	}
	a1, a2 := run(3.1415926), run(3.1415926)
	if a1 != a2 {
		t.Error("same operands produced different latency")
	}
	// 2.0 has an all-zero mantissa → jitter 0; pi has many set bits.
	b1 := run(2.0)
	if a1 == b1 {
		t.Log("note: jitter equal for these operands (allowed but unexpected)")
	}
	if diff := int64(a1) - int64(b1); diff < 0 || diff > 3 {
		t.Errorf("jitter out of range: %d", diff)
	}
}

func TestResetClearsState(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 9).
		IPoint(1).
		Halt()
	p := singleFunc(t, b)
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := newNullCPU(NewDefaultConfig(), img)
	c.Reset(stackTop)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	cyc1 := c.Cycles()
	c.Reset(stackTop)
	if c.Cycles() != 0 || c.Halted() || len(c.Trace()) != 0 || c.Reg(isa.L0) != 0 {
		t.Error("Reset left state behind")
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Cycles() != cyc1 {
		t.Errorf("second run cycles=%d, want %d (deterministic)", c.Cycles(), cyc1)
	}
}

func TestStepAfterHaltErrors(t *testing.T) {
	b := prog.NewFunc("main", prog.MinFrame).Prologue().Halt()
	p := singleFunc(t, b)
	img, _ := loader.Load(p, loader.DefaultSequentialConfig())
	c := newNullCPU(NewDefaultConfig(), img)
	c.Reset(stackTop)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err == nil {
		t.Error("step after halt succeeded")
	}
}

func TestMemoryPrimitives(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x1000, 0xDEADBEEF)
	if m.LoadWord(0x1000) != 0xDEADBEEF {
		t.Error("word round trip")
	}
	if m.LoadWord(0x2000) != 0 {
		t.Error("unbacked memory should read zero")
	}
	// Big-endian bytes of 0xDEADBEEF: DE AD BE EF.
	for i, want := range []uint32{0xDE, 0xAD, 0xBE, 0xEF} {
		if got := m.LoadByte(0x1000 + mem.Addr(i)); got != want {
			t.Errorf("byte %d=%#x, want %#x", i, got, want)
		}
	}
	m.StoreByte(0x1001, 0x11)
	if m.LoadWord(0x1000) != 0xDE11BEEF {
		t.Errorf("byte store merged wrong: %#x", m.LoadWord(0x1000))
	}
	if m.PagesAllocated() != 1 {
		t.Errorf("pages=%d, want 1", m.PagesAllocated())
	}
	m.Clear()
	if m.LoadWord(0x1000) != 0 || m.PagesAllocated() != 0 {
		t.Error("Clear failed")
	}
}

func TestMisalignedMemoryPanics(t *testing.T) {
	m := NewMemory()
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned LoadWord did not panic")
		}
	}()
	m.LoadWord(0x1002)
}

func TestFcmpUnorderedNaNSemantics(t *testing.T) {
	// With a NaN operand, SPARC sets the unordered condition: the ordered
	// branches (fbe/fbl/fbg) are not taken, fbne is.
	p := &prog.Program{Name: "t", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "v", Size: 8,
		Init: []uint32{0x7FC00000, math.Float32bits(1.0)}}); err != nil { // quiet NaN, 1.0
		t.Fatal(err)
	}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "v").
		FLd(0, isa.L0, 0). // NaN
		FLd(1, isa.L0, 4). // 1.0
		MovI(isa.L1, 0).
		Fcmp(0, 1).
		Fbg("skipg").
		AddI(isa.L1, isa.L1, 1). // executed: fbg NOT taken on unordered
		Label("skipg").
		Fcmp(0, 1).
		Fbl("skipl").
		AddI(isa.L1, isa.L1, 2). // executed: fbl NOT taken
		Label("skipl").
		Fcmp(0, 1).
		Fbe("skipe").
		AddI(isa.L1, isa.L1, 4). // executed: fbe NOT taken
		Label("skipe").
		Fcmp(0, 1).
		Fbne("skipn").
		AddI(isa.L1, isa.L1, 8). // skipped: fbne IS taken on unordered
		Label("skipn").
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	c := runProgram(t, p)
	if got := c.Reg(isa.L1); got != 7 {
		t.Errorf("NaN branch mask=%d, want 7 (fbg/fbl/fbe fall through, fbne taken)", got)
	}
}
