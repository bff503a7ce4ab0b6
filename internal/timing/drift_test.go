package timing_test

// The drift test is the contract between the simulator and the static
// WCET analyzer: both cost instructions from timing.Model, and this test
// proves the simulator actually charges what Model.OpLatency says, for
// EVERY opcode in the ISA. It steps a CPU instruction by instruction
// over a program that executes every isa.Op at least once (branches in
// both taken and not-taken variants) against a zero-latency memory
// hierarchy, so the only cycles charged are the core component the
// Model describes, and asserts each per-step cycle delta equals
// OpLatency. A coverage map guarantees no opcode is silently skipped —
// adding an opcode to the ISA without extending this program fails the
// test.

import (
	"math"
	"testing"

	"dsr/internal/cpu"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/timing"
)

// zeroMem is memory with no latency at all: over it the platform's L1s
// (0-cycle hits) and TLBs (0-cycle hits) cost nothing, hit or miss, so
// every cycle the CPU charges comes from the core timing model alone.
type zeroMem struct{}

func (zeroMem) Read(mem.Addr, int) mem.Cycles  { return 0 }
func (zeroMem) Write(mem.Addr, int) mem.Cycles { return 0 }

// coverageProgram executes every opcode at least once. Branches are
// arranged so each conditional opcode runs once taken and once not
// taken; every taken branch skips at least one instruction, so a taken
// branch is detectable as pcAfter != pc+4.
func coverageProgram(t *testing.T) *prog.Program {
	t.Helper()

	main := prog.NewFunc("main", 96).
		Prologue(). // Save
		Nop().
		// Integer ALU.
		MovI(isa.G1, 5).     // Mov
		Mov(isa.G2, isa.G1). // Mov (register form)
		Add(isa.G3, isa.G1, isa.G2).
		Sub(isa.G4, isa.G3, isa.G1).
		AndI(isa.G4, isa.G3, 7).
		OpI(isa.Or, isa.G4, isa.G3, 8).
		OpI(isa.Xor, isa.G4, isa.G4, 3).
		SllI(isa.G4, isa.G4, 2).
		SrlI(isa.G4, isa.G4, 1).
		OpI(isa.Sra, isa.G4, isa.G4, 1).
		MulI(isa.G4, isa.G1, 3).
		OpI(isa.Div, isa.G4, isa.G4, 7).
		// Memory.
		Set(isa.G2, "buf").
		Ld(isa.G5, isa.G2, 0).
		St(isa.G5, isa.G2, 4).
		Ldub(isa.G5, isa.G2, 1).
		Stb(isa.G5, isa.G2, 2).
		FLd(0, isa.G2, 8).
		FLd(1, isa.G2, 12).
		FSt(1, isa.G2, 16).
		// FPU.
		Fadd(2, 0, 1).
		Fsub(2, 0, 1).
		Fmul(2, 0, 1).
		Fdiv(2, 0, 1).
		Fsqrt(2, 0).
		Fitos(3, 1).
		Fstoi(3, 3).
		// Integer branches: G1 == 5. First compare equal (Z=1, N=0):
		// Be/Ble/Bge taken, Bne/Bl/Bg not taken.
		CmpI(isa.G1, 5).
		Be("ia").Nop().Label("ia").
		Ble("ib").Nop().Label("ib").
		Bge("ic").Nop().Label("ic").
		CmpI(isa.G1, 5).
		Bne("id").Nop().Label("id").
		Bl("ie").Nop().Label("ie").
		Bg("if").Nop().Label("if").
		// Then compare less (5 < 9: Z=0, N=1): Bne/Bl/Ble taken,
		// Be/Bg/Bge not taken.
		CmpI(isa.G1, 9).
		Bne("ig").Nop().Label("ig").
		Bl("ih").Nop().Label("ih").
		Ble("ii").Nop().Label("ii").
		CmpI(isa.G1, 9).
		Be("ij").Nop().Label("ij").
		Bg("ik").Nop().Label("ik").
		Bge("il").Nop().Label("il").
		// Finally compare greater (5 > 3: Z=0, N=0): Bg/Bge taken,
		// Ble not taken.
		CmpI(isa.G1, 3).
		Bg("in").Nop().Label("in").
		Bge("io").Nop().Label("io").
		Ble("ip").Nop().Label("ip").
		Ba("im").Nop().Label("im"). // Ba always taken
		// FP branches: f0 == f0 (fcc=0): Fbe taken, Fbne/Fbl/Fbg not.
		Fcmp(0, 0).
		Fbe("fa").Nop().Label("fa").
		Fbne("fb").Nop().Label("fb").
		Fbl("fc").Nop().Label("fc").
		Fbg("fd").Nop().Label("fd").
		// f1 < f0 (fcc=-1): Fbl and Fbne taken, Fbe/Fbg not.
		Fcmp(1, 0).
		Fbl("fe").Nop().Label("fe").
		Fbne("ff").Nop().Label("ff").
		// f0 > f1 (fcc=1): Fbg taken, Fbe not.
		Fcmp(0, 1).
		Fbg("fg").Nop().Label("fg").
		Fbe("fh").Nop().Label("fh").
		// Calls: direct to a full function (Ret), direct to a leaf
		// (RetL), indirect through a register (CallR).
		Call("helper").
		Call("leaf").
		Set(isa.G1, "leaf").
		Emit(isa.Instr{Op: isa.CallR, Rs1: isa.G1}).
		// Standalone window push/pop (no trap at this depth).
		Emit(isa.Instr{Op: isa.Save, Imm: 96, UseImm: true}).
		Emit(isa.Instr{Op: isa.Restore}).
		IPoint(1).
		Halt().
		MustBuild()

	// helper uses SaveX (zero extra offset via %g0) and returns with Ret.
	helper := prog.NewFunc("helper", 96).
		Emit(isa.Instr{Op: isa.SaveX, Imm: 96, UseImm: true, Rs2: isa.G0}).
		Nop().
		Epilogue(). // Ret
		MustBuild()

	leaf := prog.NewLeaf("leaf").
		Nop().
		RetLeaf(). // RetL
		MustBuild()

	p := &prog.Program{
		Name:      "opcov",
		Entry:     "main",
		Functions: []*prog.Function{main, helper, leaf},
		Data: []*prog.DataObject{{
			Name: "buf", Size: 32, Align: 8,
			Init: []uint32{
				0x01020304, 0,
				math.Float32bits(6.5),  // f0
				math.Float32bits(2.25), // f1
				0,
			},
		}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("coverage program invalid: %v", err)
	}
	return p
}

func newZeroLatencyCPU(t *testing.T, p *prog.Program) (*cpu.CPU, *loader.Image) {
	t.Helper()
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	data := cpu.NewMemory()
	for _, w := range img.Inits {
		data.StoreWord(w.Addr, w.Val)
	}
	il1, dl1, it, dt := platform.ProximaLEON3().Fronts(zeroMem{})
	c := cpu.New(cpu.NewDefaultConfig(), img, il1, dl1, it, dt, data)
	c.Reset(0x6000_0000)
	return c, img
}

// TestNoDriftEveryOpcode steps the coverage program and asserts every
// instruction's cycle delta equals Model.OpLatency, and that every
// opcode in the ISA was exercised.
func TestNoDriftEveryOpcode(t *testing.T) {
	model := timing.Default()
	c, img := newZeroLatencyCPU(t, coverageProgram(t))

	covered := make([]bool, isa.NumOps)
	takenSeen := make(map[isa.Op]bool)
	notTakenSeen := make(map[isa.Op]bool)

	for steps := 0; !c.Halted(); steps++ {
		if steps > 10_000 {
			t.Fatal("coverage program did not halt")
		}
		pc := c.PC()
		in := img.InstrAt(pc)
		if in == nil {
			t.Fatalf("no instruction at pc %#x", pc)
		}
		// Jitter is value-dependent: read the operand the same way the
		// core will before stepping.
		var jit mem.Cycles
		if in.Op == isa.Fdiv || in.Op == isa.Fsqrt {
			jit = model.Jitter(c.FReg(in.FRs2))
		}
		before := c.Cycles()
		if err := c.Step(); err != nil {
			t.Fatalf("step at pc %#x (%s): %v", pc, in.Op, err)
		}
		delta := c.Cycles() - before
		taken := c.PC() != pc+isa.InstrBytes
		want := model.OpLatency(in.Op, taken, jit)
		if delta != want {
			t.Fatalf("drift at pc %#x: op %s (taken=%v jitter=%d): simulator charged %d, timing.Model says %d",
				pc, in.Op, taken, jit, delta, want)
		}
		covered[in.Op] = true
		if in.Op.IsBranch() {
			if taken {
				takenSeen[in.Op] = true
			} else {
				notTakenSeen[in.Op] = true
			}
		}
	}

	for op := isa.Op(0); op < isa.NumOps; op++ {
		if !covered[op] {
			t.Errorf("opcode %s never executed: extend the coverage program so the drift test keeps covering the full ISA", op)
		}
	}
	// Every conditional branch must have run both ways; Ba only taken.
	for op := isa.Be; op <= isa.Fbg; op++ {
		if !takenSeen[op] {
			t.Errorf("branch %s never taken", op)
		}
		if !notTakenSeen[op] {
			t.Errorf("branch %s never fell through", op)
		}
	}
	if !takenSeen[isa.Ba] {
		t.Error("ba never taken")
	}
}

// TestWorstOpLatencyDominates proves the analyzer's per-op worst case is
// an upper bound on everything the simulator can charge for the core
// component: every (taken, jitter) combination.
func TestWorstOpLatencyDominates(t *testing.T) {
	model := timing.Default()
	for op := isa.Op(0); op < isa.NumOps; op++ {
		worst := model.WorstOpLatency(op)
		for _, taken := range []bool{false, true} {
			for jit := mem.Cycles(0); jit <= model.FPJitterMax; jit++ {
				if got := model.OpLatency(op, taken, jit); got > worst {
					t.Errorf("op %s: OpLatency(taken=%v, jitter=%d)=%d exceeds WorstOpLatency=%d",
						op, taken, jit, got, worst)
				}
			}
		}
	}
}

// TestJitterBounded pins the jitter function inside [0, FPJitterMax].
func TestJitterBounded(t *testing.T) {
	model := timing.Default()
	for _, v := range []float32{0, 1, 2.25, 6.5, 3.14159, 1e-20, 1e20, -7.5} {
		if j := model.Jitter(v); j > model.FPJitterMax {
			t.Errorf("Jitter(%g) = %d exceeds FPJitterMax %d", v, j, model.FPJitterMax)
		}
	}
	zero := timing.Model{}
	if zero.Jitter(3.14159) != 0 {
		t.Error("zero-jitter model must return 0")
	}
}

// TestWindowTrapCost pins the spill/fill trap cost the WCET analyzer
// charges per Save/Restore when the call depth can exceed the register
// file: TrapOverhead plus 16 stores (spill) or 16 loads (fill), here
// measured against the zero-latency hierarchy.
func TestWindowTrapCost(t *testing.T) {
	model := timing.Default()
	b := prog.NewFunc("main", 96).Prologue()
	// Reset leaves one live window; the prologue makes 2. Five more
	// saves reach liveWin == NumWindows-1 == 7; the sixth (the seventh
	// Save overall) overflows and spills.
	for i := 0; i < 6; i++ {
		b.Emit(isa.Instr{Op: isa.Save, Imm: 96, UseImm: true})
	}
	// Unwind: six restores bring liveWin back to 1; the seventh
	// underflows and fills.
	for i := 0; i < 7; i++ {
		b.Emit(isa.Instr{Op: isa.Restore})
	}
	main := b.Halt().MustBuild()
	p := &prog.Program{Name: "trap", Entry: "main", Functions: []*prog.Function{main}}
	if err := p.Validate(); err != nil {
		t.Fatalf("trap program invalid: %v", err)
	}
	c, img := newZeroLatencyCPU(t, p)

	spill := model.OpLatency(isa.Save, false, 0) + model.TrapOverhead + 16*model.StoreBase
	fill := model.OpLatency(isa.Restore, false, 0) + model.TrapOverhead + 16*model.LoadUse

	var saves, restores int
	for !c.Halted() {
		pc := c.PC()
		in := img.InstrAt(pc)
		before := c.Cycles()
		if err := c.Step(); err != nil {
			t.Fatalf("step at pc %#x: %v", pc, err)
		}
		delta := c.Cycles() - before
		switch in.Op {
		case isa.Save:
			saves++
			want := model.OpLatency(isa.Save, false, 0)
			if saves == 7 { // prologue + 6 fill the file; the 7th overflows
				want = spill
			}
			if delta != want {
				t.Fatalf("save #%d charged %d, want %d", saves, delta, want)
			}
		case isa.Restore:
			restores++
			want := model.OpLatency(isa.Restore, false, 0)
			if restores == 7 { // the last one underflows
				want = fill
			}
			if delta != want {
				t.Fatalf("restore #%d charged %d, want %d", restores, delta, want)
			}
		}
	}
	ctr := c.Counters()
	if ctr.WindowOverflows != 1 || ctr.WindowUnderflows != 1 {
		t.Fatalf("got %d overflows, %d underflows; want 1 and 1",
			ctr.WindowOverflows, ctr.WindowUnderflows)
	}
}
