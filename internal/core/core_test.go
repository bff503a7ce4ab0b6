package core

import (
	"testing"

	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/telemetry"
)

// benchProgram is a small but non-trivial program: main calls compute in
// a loop; compute calls a leaf; a data table is summed. Returns the sum
// in %o0 so functional correctness is observable under randomisation.
func benchProgram(t testing.TB) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: "bench", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "table", Size: 64 * 4,
		Init: func() []uint32 {
			w := make([]uint32, 64)
			for i := range w {
				w[i] = uint32(i)
			}
			return w
		}()}); err != nil {
		t.Fatal(err)
	}

	leaf := prog.NewLeaf("scale").
		MulI(isa.O0, isa.O0, 2).
		RetLeaf().
		MustBuild()

	// compute(i) = scale(table[i]) = 2*table[i]
	compute := prog.NewFunc("compute", prog.MinFrame).
		Prologue().
		Set(isa.L0, "table").
		SllI(isa.L1, isa.I0, 2).
		Add(isa.L0, isa.L0, isa.L1).
		Ld(isa.O0, isa.L0, 0).
		Call("scale").
		Mov(isa.I0, isa.O0).
		Epilogue().
		MustBuild()

	// main: sum over i of compute(i), i in [0,64) → 2*(0+..+63) = 4032
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0). // i
		MovI(isa.L1, 0). // sum
		Label("loop").
		Mov(isa.O0, isa.L0).
		Call("compute").
		Add(isa.L1, isa.L1, isa.O0).
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, 64).
		Bl("loop").
		Mov(isa.O0, isa.L1).
		Halt().
		MustBuild()

	for _, f := range []*prog.Function{main, compute, leaf} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

const wantSum = 4032

func TestTransformPreservesSemantics(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Reboot(1); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitValue != wantSum {
		t.Errorf("randomised result=%d, want %d", res.ExitValue, wantSum)
	}
}

func TestTransformStats(t *testing.T) {
	p := benchProgram(t)
	tp, meta, stats, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	// 2 direct calls (main→compute, compute→scale) and 2 non-leaf
	// prologues (main, compute).
	if stats.CallsRewritten != 2 {
		t.Errorf("calls rewritten=%d, want 2", stats.CallsRewritten)
	}
	if stats.ProloguesRewritten != 2 {
		t.Errorf("prologues rewritten=%d, want 2", stats.ProloguesRewritten)
	}
	if stats.ExtraInstrs != 8 {
		t.Errorf("extra instrs=%d, want 8", stats.ExtraInstrs)
	}
	if len(meta.Funcs) != 3 {
		t.Errorf("metadata funcs=%d, want 3", len(meta.Funcs))
	}
	// The transformed program must contain the metadata tables and no
	// remaining direct calls or plain saves in non-leaf functions.
	if tp.DataObject(FTableSym) == nil || tp.DataObject(OffsetsSym) == nil {
		t.Error("metadata tables missing")
	}
	for _, f := range tp.Functions {
		for i := range f.Code {
			if f.Code[i].Op == isa.Call {
				t.Errorf("%s still has a direct call", f.Name)
			}
			if f.Code[i].Op == isa.Save && !f.Leaf {
				t.Errorf("%s still has a plain save", f.Name)
			}
		}
	}
	// Original untouched.
	if p.DataObject(FTableSym) != nil {
		t.Error("Transform mutated its input")
	}
}

func TestTransformBranchRemap(t *testing.T) {
	// A backward branch spanning a rewritten call must still reach the
	// same logical instruction.
	p := benchProgram(t)
	tp, _, _, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("transformed program invalid: %v", err)
	}
	main := tp.Function("main")
	// Find the loop branch (Bl) and check it targets the Mov o0,l0 that
	// starts the loop body.
	for i := range main.Code {
		if main.Code[i].Op == isa.Bl {
			tgt := main.Code[i+int(main.Code[i].Disp)]
			if tgt.Op != isa.Mov || tgt.Rd != isa.O0 {
				t.Errorf("loop branch lands on %v", tgt.String())
			}
		}
	}
}

func TestTransformRejectsMidFunctionSave(t *testing.T) {
	p := &prog.Program{Name: "bad", Entry: "main"}
	f := &prog.Function{Name: "main", FrameSize: prog.MinFrame, Code: []isa.Instr{
		{Op: isa.Save, Imm: prog.MinFrame},
		{Op: isa.Save, Imm: prog.MinFrame},
		{Op: isa.Halt},
	}}
	p.Functions = append(p.Functions, f)
	if _, _, _, err := Transform(p); err == nil {
		t.Error("mid-function save accepted")
	}
}

func TestRebootChangesLayout(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Reboot(1); err != nil {
		t.Fatal(err)
	}
	pl1 := loader.Placement{}
	for k, v := range rt.Placement() {
		pl1[k] = v
	}
	if _, err := rt.Reboot(2); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k, v := range rt.Placement() {
		if pl1[k] != v {
			moved++
		}
	}
	if moved < 3 {
		t.Errorf("only %d symbols moved across reboots", moved)
	}
	// Same seed → same layout (reproducibility of the protocol).
	if _, err := rt.Reboot(1); err != nil {
		t.Fatal(err)
	}
	for k, v := range rt.Placement() {
		if pl1[k] != v {
			t.Fatalf("seed 1 layout not reproducible for %s", k)
		}
	}
}

func TestOffsetBoundDefaultsToL2WaySize(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.opts.OffsetBound; got != 32*1024 {
		t.Errorf("offset bound=%d, want 32768 (L2 way size)", got)
	}
}

func TestStackOffsetsWrittenAndAligned(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seenNonZero := false
	for seed := uint64(1); seed <= 20; seed++ {
		if _, err := rt.Reboot(seed); err != nil {
			t.Fatal(err)
		}
		offBase := rt.Placement()[OffsetsSym]
		for i, name := range rt.Metadata().Funcs {
			off := plat.Mem.LoadWord(offBase + mem.Addr(i)*4)
			f := rt.Program().Function(name)
			if f.Leaf && off != 0 {
				t.Errorf("leaf %s has stack offset %d", name, off)
			}
			if off%8 != 0 {
				t.Errorf("offset %d for %s not double-word aligned", off, name)
			}
			if int(off) >= rt.opts.OffsetBound {
				t.Errorf("offset %d for %s exceeds bound", off, name)
			}
			if off != 0 {
				seenNonZero = true
			}
		}
	}
	if !seenNonZero {
		t.Error("no non-zero stack offsets in 20 reboots")
	}
}

func TestFTableMatchesPlacement(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Reboot(5); err != nil {
		t.Fatal(err)
	}
	ftBase := rt.Placement()[FTableSym]
	for i, name := range rt.Metadata().Funcs {
		got := mem.Addr(plat.Mem.LoadWord(ftBase + mem.Addr(i)*4))
		if got != rt.Placement()[name] {
			t.Errorf("ftable[%d]=%#x, placement[%s]=%#x", i, got, name, rt.Placement()[name])
		}
	}
}

func TestExecutionTimeVariesAcrossReboots(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[mem.Cycles]bool{}
	for seed := uint64(1); seed <= 30; seed++ {
		if _, err := rt.Reboot(seed); err != nil {
			t.Fatal(err)
		}
		r, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		distinct[r.Cycles] = true
		if r.ExitValue != wantSum {
			t.Fatalf("functional result broke under randomisation: %d", r.ExitValue)
		}
	}
	if len(distinct) < 5 {
		t.Errorf("only %d distinct execution times in 30 randomised runs", len(distinct))
	}
}

// TestEagerBootCostOutsideMeasuredWindow checks that an eager reboot
// relocates every function and reports a non-zero boot cost through its
// event log; TestObservedRebootLeavesRunUnchanged (internal/host) pins
// that the measured run never sees that cost.
func TestEagerBootCostOutsideMeasuredWindow(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{Mode: Eager})
	if err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewCaptureLog()
	rt.SetEventLog(log)
	stats, err := rt.Reboot(3)
	if err != nil {
		t.Fatal(err)
	}
	var boot string
	for _, e := range log.Take() {
		if e.Kind == "dsr.reboot" {
			boot, _ = e.Attr("boot_cycles")
		}
	}
	if boot == "" || boot == "0" {
		t.Errorf("eager relocation cost %q boot cycles, want > 0", boot)
	}
	if stats.RelocatedFuncs != 3 {
		t.Errorf("relocated funcs=%d, want 3", stats.RelocatedFuncs)
	}
}

func TestLazySlowerThanEagerInWindow(t *testing.T) {
	p := benchProgram(t)

	run := func(mode RelocationMode) mem.Cycles {
		plat := platform.New(platform.ProximaLEON3())
		rt, err := NewRuntime(p, plat, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Reboot(7); err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitValue != wantSum {
			t.Fatalf("mode %s broke semantics", mode)
		}
		return res.Cycles
	}
	eager, lazy := run(Eager), run(Lazy)
	if lazy <= eager {
		t.Errorf("lazy (%d) not slower than eager (%d) inside the measured window", lazy, eager)
	}
}

func TestPoolPageDiversity(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Reboot(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CodePages < 3 || stats.DataPages < 3 {
		t.Errorf("pages code=%d data=%d, want >=3 each (one chunk per object)",
			stats.CodePages, stats.DataPages)
	}
}

func TestRunBeforeRebootErrors(t *testing.T) {
	p := benchProgram(t)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Error("Run before Reboot succeeded")
	}
}

func TestStaticLayoutRandomisesAcrossSeeds(t *testing.T) {
	p := benchProgram(t)
	cfg := loader.DefaultSequentialConfig()
	pl1, err := StaticLayout(p, cfg, 32*1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := StaticLayout(p, cfg, 32*1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k := range pl1 {
		if pl1[k] != pl2[k] {
			moved++
		}
	}
	if moved < 2 {
		t.Errorf("static layouts share too much across seeds (moved=%d)", moved)
	}
}

func TestStaticBuildRunsCorrectly(t *testing.T) {
	p := benchProgram(t)
	for seed := uint64(1); seed <= 5; seed++ {
		img, err := StaticBuild(p, loader.DefaultSequentialConfig(), 32*1024, seed)
		if err != nil {
			t.Fatal(err)
		}
		plat := platform.New(platform.ProximaLEON3())
		plat.LoadImage(img)
		res, err := plat.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitValue != wantSum {
			t.Errorf("seed %d: static build result=%d, want %d", seed, res.ExitValue, wantSum)
		}
		// Static randomisation has zero instruction overhead.
		base, err := loader.Load(p, loader.DefaultSequentialConfig())
		if err != nil {
			t.Fatal(err)
		}
		plat2 := platform.New(platform.ProximaLEON3())
		plat2.LoadImage(base)
		res2, err := plat2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.PMCs.Instr != res2.PMCs.Instr {
			t.Errorf("static variant changed instruction count: %d vs %d",
				res.PMCs.Instr, res2.PMCs.Instr)
		}
	}
}

func TestStaticLayoutValidation(t *testing.T) {
	p := benchProgram(t)
	if _, err := StaticLayout(p, loader.DefaultSequentialConfig(), 0, 1); err == nil {
		t.Error("zero offset bound accepted")
	}
	if _, err := StaticLayout(p, loader.DefaultSequentialConfig(), 12, 1); err == nil {
		t.Error("non-8-multiple bound accepted")
	}
}

func TestDSRInstructionOverheadIsSmall(t *testing.T) {
	// The paper reports <2% dynamic instruction overhead. Our bench
	// program is call-heavy (64 iterations x 2 calls), so allow more, but
	// the overhead must still be bounded and positive.
	p := benchProgram(t)
	base, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(platform.ProximaLEON3())
	plat.LoadImage(base)
	r0, err := plat.Run()
	if err != nil {
		t.Fatal(err)
	}

	plat2 := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Reboot(1); err != nil {
		t.Fatal(err)
	}
	r1, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PMCs.Instr <= r0.PMCs.Instr {
		t.Error("DSR did not add instructions")
	}
	overhead := float64(r1.PMCs.Instr-r0.PMCs.Instr) / float64(r0.PMCs.Instr)
	if overhead > 0.40 {
		t.Errorf("instruction overhead %.1f%% implausibly high", overhead*100)
	}
}
